package lint

import (
	"go/ast"
	"go/token"
)

// This file is kslint's one path-sensitive dataflow engine. The rules
// that need a per-path view of a function body — lockheld-rpc,
// lockbalance and lockorder (held locks), chanown (closed channels),
// poollife (released buffers), txnproto (transaction states) — supply
// only a lattice; the engine owns the control flow, once:
//
//   - A statement list is walked in order, threading the state. A path
//     that returns, branches (break, continue, goto, fallthrough) or
//     panics is terminated: the statements after it on that list are not
//     walked (vet's unreachable check keeps the module free of them), and
//     it drops out of every join. A return fires the exit hook first,
//     and so does falling off the end of the body.
//   - if/else-if forks a clone of the state per arm (or the lattice's
//     condition split) and joins the live arms. switch and type switch
//     fork per clause, after evaluating the clause's case expressions on
//     the entry state, and join the live clauses plus the entry state
//     when there is no default. select forks per comm clause, applies the
//     communication on the clause's copy, and joins the live clauses
//     only: one of them always runs. A labeled statement is its
//     statement.
//   - A loop walks its body once from a clone of the entry state (post
//     statement included). Paths that branch out of the body are dropped,
//     like any terminated path. The lattice's loop hook gives the state
//     after the loop from the entry and end-of-body states; by default
//     their join, and it may ask for a second pass over the body to see
//     effects carried across the back edge.
//   - A defer statement goes to the lattice's defer hook where it is
//     registered (by default its arguments are evaluated); a go
//     statement evaluates its arguments. FuncLit bodies are never entered
//     from the enclosing path: they run on their own schedule, and rules
//     walk them as independent bodies (funcBodies).

// flowLattice is what a rule supplies to the engine for one body. Join
// and clone are required; so are stmt and expr, the transfer functions
// for simple statements and for the expressions the engine evaluates
// (conditions, switch tags and case values, range operands, return
// results, go arguments). The hooks after them are optional.
//
// States are updated in place: transfers mutate st, and the engine
// clones at every fork. join may return either argument, mutated.
type flowLattice[S any] struct {
	clone func(st S) S
	// join merges two live paths; a is the earlier path in source order.
	join func(a, b S) S
	// stmt applies an expression, send, assignment, inc/dec or
	// declaration statement. comm marks a select case's communication,
	// which only runs once the case is chosen and so never blocks.
	stmt func(s ast.Stmt, st S, comm bool)
	expr func(e ast.Expr, st S)

	// deferStmt applies a defer statement where it is registered.
	deferStmt func(d *ast.DeferStmt, st S)
	// exit fires at each return statement (after its results are
	// evaluated; ret is the statement) and when the body falls off its
	// end (ret is nil), with that path's state.
	exit func(pos token.Pos, ret *ast.ReturnStmt, st S)
	// split forks an if statement's init and condition itself, giving the
	// states entering the then and else arms; ok=false leaves the if to
	// the engine (init, condition, two clones).
	split func(n *ast.IfStmt, st S) (then, els S, ok bool)
	// loop gives the state after a loop from the entry state and the live
	// end-of-body state; again asks for a second pass over the body,
	// starting from the returned state.
	loop func(pre, end S) (after S, again bool)
}

// walk runs the lattice over one function body from entry.
func (l *flowLattice[S]) walk(body *ast.BlockStmt, entry S) {
	if st, live := l.stmts(body.List, entry); live && l.exit != nil {
		l.exit(body.End(), nil, st)
	}
}

// stmts walks a statement list; live=false means every path through it
// terminated, and the returned state is then meaningless.
func (l *flowLattice[S]) stmts(list []ast.Stmt, st S) (S, bool) {
	for _, s := range list {
		var live bool
		if st, live = l.stmt1(s, st); !live {
			return st, false
		}
	}
	return st, true
}

func (l *flowLattice[S]) stmt1(s ast.Stmt, st S) (S, bool) {
	switch x := s.(type) {
	case nil:
		return st, true
	case *ast.BlockStmt:
		return l.stmts(x.List, st)
	case *ast.LabeledStmt:
		return l.stmt1(x.Stmt, st)
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			l.expr(r, st)
		}
		if l.exit != nil {
			l.exit(x.Pos(), x, st)
		}
		return st, false
	case *ast.BranchStmt:
		return st, false
	case *ast.DeferStmt:
		if l.deferStmt != nil {
			l.deferStmt(x, st)
		} else {
			l.exprs(x.Call.Args, st)
		}
	case *ast.GoStmt:
		l.exprs(x.Call.Args, st)
	case *ast.IfStmt:
		return l.ifStmt(x, st)
	case *ast.ForStmt:
		st, _ = l.stmt1(x.Init, st)
		if x.Cond != nil {
			l.expr(x.Cond, st)
		}
		end, live := l.stmts(x.Body.List, l.clone(st))
		if live {
			end, live = l.stmt1(x.Post, end)
		}
		return l.loopExit(x.Body, st, end, live)
	case *ast.RangeStmt:
		l.expr(x.X, st)
		end, live := l.stmts(x.Body.List, l.clone(st))
		return l.loopExit(x.Body, st, end, live)
	case *ast.SwitchStmt:
		st, _ = l.stmt1(x.Init, st)
		if x.Tag != nil {
			l.expr(x.Tag, st)
		}
		return l.caseClauses(x.Body, st)
	case *ast.TypeSwitchStmt:
		st, _ = l.stmt1(x.Init, st)
		st, _ = l.stmt1(x.Assign, st)
		return l.caseClauses(x.Body, st)
	case *ast.SelectStmt:
		out := flowJoin[S]{l: l}
		for _, c := range x.Body.List {
			cc := c.(*ast.CommClause)
			arm := l.clone(st)
			if cc.Comm != nil {
				l.stmt(cc.Comm, arm, true)
			}
			out.add(l.stmts(cc.Body, arm))
		}
		return out.st, out.live
	default:
		l.stmt(s, st, false)
		if isPanicStmt(s) {
			return st, false
		}
	}
	return st, true
}

func (l *flowLattice[S]) exprs(list []ast.Expr, st S) {
	for _, e := range list {
		l.expr(e, st)
	}
}

func (l *flowLattice[S]) ifStmt(x *ast.IfStmt, st S) (S, bool) {
	var thenIn, elseIn S
	ok := false
	if l.split != nil {
		thenIn, elseIn, ok = l.split(x, st)
	}
	if !ok {
		st, _ = l.stmt1(x.Init, st)
		l.expr(x.Cond, st)
		thenIn, elseIn = l.clone(st), l.clone(st)
	}
	out := flowJoin[S]{l: l}
	out.add(l.stmts(x.Body.List, thenIn))
	out.add(l.stmt1(x.Else, elseIn))
	return out.st, out.live
}

// caseClauses forks per switch clause and joins the live outcomes, plus
// the entry state when no default clause catches the rest.
func (l *flowLattice[S]) caseClauses(body *ast.BlockStmt, st S) (S, bool) {
	out := flowJoin[S]{l: l}
	hasDefault := false
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		l.exprs(cc.List, st)
		if cc.List == nil {
			hasDefault = true
		}
		out.add(l.stmts(cc.Body, l.clone(st)))
	}
	if !hasDefault {
		out.add(st, true)
	}
	return out.st, out.live
}

func (l *flowLattice[S]) loopExit(body *ast.BlockStmt, pre, end S, live bool) (S, bool) {
	if !live {
		return pre, true
	}
	if l.loop == nil {
		return l.join(pre, end), true
	}
	after, again := l.loop(pre, end)
	if again {
		l.stmts(body.List, l.clone(after))
	}
	return after, true
}

// flowJoin accumulates the live outcomes of a fork's arms.
type flowJoin[S any] struct {
	l    *flowLattice[S]
	st   S
	live bool
}

// add joins one arm's outcome, if it is live.
func (j *flowJoin[S]) add(st S, live bool) {
	if !live {
		return
	}
	if !j.live {
		j.st, j.live = st, true
		return
	}
	j.st = j.l.join(j.st, st)
}

// isPanicStmt reports whether s is a call to the panic builtin.
func isPanicStmt(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// simpleExprs evaluates a simple statement's expressions in order —
// right-hand sides before targets — the default transfer for statements
// a rule gives no meaning of its own.
func simpleExprs(s ast.Stmt, eval func(ast.Node)) {
	switch x := s.(type) {
	case *ast.ExprStmt:
		eval(x.X)
	case *ast.SendStmt:
		eval(x.Chan)
		eval(x.Value)
	case *ast.AssignStmt:
		for _, e := range x.Rhs {
			eval(e)
		}
		for _, e := range x.Lhs {
			eval(e)
		}
	case *ast.IncDecStmt:
		eval(x.X)
	case *ast.DeclStmt:
		eval(x.Decl)
	}
}

// inspectFrame is ast.Inspect that does not enter FuncLit bodies: the
// nodes that run on the current path of the current frame.
func inspectFrame(n ast.Node, f func(ast.Node) bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		return f(x)
	})
}

// funcBodies calls visit for every function body under root, declared
// functions and func literals alike, in source order. The engine never
// enters a literal from its enclosing path, so this is how a rule walks
// literals as the independent bodies they are.
func funcBodies(root ast.Node, visit func(*ast.BlockStmt)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				visit(fn.Body)
			}
		case *ast.FuncLit:
			visit(fn.Body)
		}
		return true
	})
}

// mustJoin keeps the keys both paths agree on (keep decides agreement on
// the values; nil accepts any pair), with a's values: the join of a
// must-hold lattice.
func mustJoin[M ~map[K]V, K comparable, V any](a, b M, keep func(a, b V) bool) M {
	out := make(M, len(a))
	for k, va := range a {
		if vb, ok := b[k]; ok && (keep == nil || keep(va, vb)) {
			out[k] = va
		}
	}
	return out
}

// mayJoin adds b's keys missing from a, keeping a's values where both
// have one: the join of a may-hold lattice. It mutates and returns a.
func mayJoin[M ~map[K]V, K comparable, V any](a, b M) M {
	for k, v := range b {
		if _, ok := a[k]; !ok {
			a[k] = v
		}
	}
	return a
}
