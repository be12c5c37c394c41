package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
)

// txnProto checks the transactional-producer protocol as a state machine
// over call sites, per the paper's EOS commit cycle:
//
//	step begin:   BeginTxn may not run while a transaction is already open
//	step offsets: SendOffsetsToTxn may not run outside an open transaction
//	              (in particular not after CommitTxn)
//	step commit:  CommitTxn/AbortTxn may not run with the transaction
//	              definitely closed (no BeginTxn reached on this path)
//	step abort:   an error path that leaves the function with a
//	              transaction still open must have AbortTxn reachable in
//	              some transitive caller, or the txn leaks until timeout
//
// The txn primitives are the four methods on internal/client.Producer.
// Module wrappers (e.g. kafka.Producer.BeginTxn) are classified by name
// plus a call-graph path to the same-named primitive, so the check sees
// through the public facade — and through interface dispatch, since the
// graph's ImplCall edges participate in those paths.
//
// Analysis is path-sensitive per receiver expression with three states:
// Unknown (the default — a producer handed in from elsewhere may or may
// not be in a txn), Open, and Closed. Closed is only asserted when this
// function saw it happen: a constructor call, a commit/abort, or a
// failed begin. Branches fork the state and re-join: equal states keep,
// different states widen to Unknown. A call into any module function
// whose closure touches a txn primitive widens every tracked state to
// Unknown (it may have moved the machine). Ops whose error result is
// captured outside the `if err := ...; err != nil` idiom widen the
// receiver to Unknown — both outcomes are live; only the idiomatic form
// splits into a precise success/failure pair of branch states.
type txnProto struct {
	module string
	graph  *CallGraph
	// wrappers maps module methods that are classified facades of a txn
	// primitive to the protocol op name; built once per graph.
	wrappers map[*types.Func]string
	touches  map[*types.Func]bool
	aborts   map[*types.Func]bool
}

func newTxnProto(module string) *txnProto {
	return &txnProto{module: module}
}

func (*txnProto) Name() string { return "txnproto" }
func (*txnProto) Doc() string {
	return "transactional producer call sites follow the begin→offsets→commit/abort protocol on every path"
}

var txnOps = []string{"BeginTxn", "CommitTxn", "AbortTxn", "SendOffsetsToTxn"}

// primitiveOp classifies fn as one of the client.Producer txn primitives.
func (t *txnProto) primitiveOp(fn *types.Func) (string, bool) {
	for _, op := range txnOps {
		if isMethod(fn, t.module+"/internal/client", "Producer", op) {
			return op, true
		}
	}
	return "", false
}

// prime builds the per-graph caches: wrapper classification and the
// touches-txn memo table.
func (t *txnProto) prime(g *CallGraph) {
	if t.graph == g {
		return
	}
	t.graph = g
	t.wrappers = make(map[*types.Func]string)
	t.touches = make(map[*types.Func]bool)
	t.aborts = make(map[*types.Func]bool)
	for _, fn := range g.Funcs() {
		if _, ok := t.primitiveOp(fn); ok {
			continue
		}
		name := fn.Name()
		isOp := false
		for _, op := range txnOps {
			if name == op {
				isOp = true
			}
		}
		if !isOp || signature(fn).Recv() == nil {
			continue
		}
		hit := func(callee *types.Func) bool {
			op, ok := t.primitiveOp(callee)
			return ok && op == name
		}
		if g.FindPath(fn, hit, nil) != nil {
			t.wrappers[fn] = name
		}
	}
}

// opOf classifies a call as a protocol op (primitive or wrapper) and
// returns the receiver expression.
func (t *txnProto) opOf(info *types.Info, call *ast.CallExpr) (op string, recv ast.Expr, ok bool) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return "", nil, false
	}
	fn = fn.Origin()
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", nil, false
	}
	if op, ok := t.primitiveOp(fn); ok {
		return op, sel.X, true
	}
	if op, ok := t.wrappers[fn]; ok {
		return op, sel.X, true
	}
	return "", nil, false
}

// touchesTxn reports whether fn's call closure reaches any txn primitive.
func (t *txnProto) touchesTxn(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	fn = fn.Origin()
	if v, ok := t.touches[fn]; ok {
		return v
	}
	hit := func(callee *types.Func) bool { _, ok := t.primitiveOp(callee); return ok }
	v := t.graph.FindPath(fn, hit, nil) != nil
	t.touches[fn] = v
	return v
}

// abortReachable reports whether any transitive caller of fn has
// AbortTxn in its call closure — the escape hatch for error paths that
// return with an open transaction for the caller to clean up.
func (t *txnProto) abortReachable(fn *types.Func) bool {
	hitAbort := func(callee *types.Func) bool {
		if op, ok := t.primitiveOp(callee); ok {
			return op == "AbortTxn"
		}
		return t.wrappers[callee] == "AbortTxn"
	}
	visited := map[*types.Func]bool{fn: true}
	queue := t.graph.Callers(fn)
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		if visited[c] {
			continue
		}
		visited[c] = true
		if v, ok := t.aborts[c]; ok {
			if v {
				return true
			}
		} else {
			v := t.graph.FindPath(c, hitAbort, nil) != nil
			t.aborts[c] = v
			if v {
				return true
			}
		}
		queue = append(queue, t.graph.Callers(c)...)
	}
	return false
}

// --- per-function state machine ---

type txnStateKind int

const (
	txnUnknown txnStateKind = iota
	txnOpen
	txnClosed
)

// txnSt is one receiver's state plus the position that established it.
type txnSt struct {
	kind txnStateKind
	pos  token.Pos
}

// txnState maps a receiver expression (by spelling) to its state; a
// missing key means Unknown.
type txnState map[string]txnSt

// txnTransfer holds txnproto's transfer functions for one function body.
type txnTransfer struct {
	rule       *txnProto
	pass       *Pass
	fn         *types.Func
	hasErr     bool // fn's last result is error
	deferAbort bool // a deferred call reaches AbortTxn
}

func (t *txnProto) Run(p *Pass) {
	t.prime(p.Graph)
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			w := &txnTransfer{rule: t, pass: p, fn: fn, hasErr: lastResultIsError(fn)}
			w.lattice().walk(fd.Body, txnState{})
		}
	}
}

// lattice is txnproto's path lattice: a join keeps a receiver's state
// only where both paths agree (different states widen to Unknown), and
// the `if err := op(); err != nil` idiom splits into precise failure and
// success states.
func (w *txnTransfer) lattice() *flowLattice[txnState] {
	return &flowLattice[txnState]{
		clone: maps.Clone[txnState],
		join: func(a, b txnState) txnState {
			return mustJoin(a, b, func(x, y txnSt) bool { return x.kind == y.kind })
		},
		stmt:      w.stmt,
		expr:      func(e ast.Expr, st txnState) { w.scanExpr(e, st) },
		deferStmt: w.deferStmt,
		exit: func(_ token.Pos, ret *ast.ReturnStmt, st txnState) {
			if ret != nil {
				w.checkEscape(ret, st)
			}
		},
		split: w.errIdiom,
	}
}

// stmt is the transfer for simple statements.
func (w *txnTransfer) stmt(s ast.Stmt, st txnState, _ bool) {
	switch n := s.(type) {
	case *ast.ExprStmt:
		// A bare op call: the error is discarded, so the op is modeled as
		// taking effect (that discard is errdrop's problem, not ours).
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
			if op, recv, ok := w.rule.opOf(w.pass.Pkg.Info, call); ok {
				w.checkOp(op, recv, st, call.Pos())
				w.applySuccess(op, recv, st, call.Pos())
				return
			}
		}
	case *ast.AssignStmt:
		// x := Constructor(...) starts a fresh, definitely-closed producer.
		if n.Tok == token.DEFINE && len(n.Lhs) >= 1 && len(n.Rhs) >= 1 {
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				if _, ok := ast.Unparen(rhs).(*ast.CallExpr); !ok {
					continue
				}
				if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name != "_" && w.isProducerType(w.pass.Pkg.Info.TypeOf(id)) {
					w.scanExpr(rhs, st)
					st[id.Name] = txnSt{kind: txnClosed, pos: id.Pos()}
					continue
				}
				w.scanExpr(rhs, st)
			}
			for _, lhs := range n.Lhs {
				w.scanExpr(lhs, st)
			}
			return
		}
		// `_ = recv.Op()` discards the error like a bare call.
		if len(n.Lhs) == 1 && len(n.Rhs) == 1 {
			if id, ok := n.Lhs[0].(*ast.Ident); ok && id.Name == "_" {
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
					if op, recv, ok := w.rule.opOf(w.pass.Pkg.Info, call); ok {
						w.checkOp(op, recv, st, call.Pos())
						w.applySuccess(op, recv, st, call.Pos())
						return
					}
				}
			}
		}
	}
	simpleExprs(s, func(e ast.Node) { w.scanExpr(e, st) })
}

// deferStmt records a deferred abort (directly or through a helper whose
// closure reaches one): it covers every later error exit.
func (w *txnTransfer) deferStmt(d *ast.DeferStmt, st txnState) {
	if op, _, ok := w.rule.opOf(w.pass.Pkg.Info, d.Call); ok {
		if op == "AbortTxn" {
			w.deferAbort = true
		}
		return
	}
	if fn := calleeFunc(w.pass.Pkg.Info, d.Call); fn != nil && w.rule.graph.Node(fn) != nil {
		hitAbort := func(callee *types.Func) bool {
			if op, ok := w.rule.primitiveOp(callee); ok {
				return op == "AbortTxn"
			}
			return w.rule.wrappers[callee] == "AbortTxn"
		}
		if hitAbort(fn.Origin()) || w.rule.graph.FindPath(fn.Origin(), hitAbort, nil) != nil {
			w.deferAbort = true
		}
	}
	for _, a := range d.Call.Args {
		w.scanExpr(a, st)
	}
}

// errIdiom splits `if err := recv.Op(); err != nil { ... }` (and the
// err == nil flip): the op's violation check runs against the pre-state,
// then the two branches see the precise failure/success states.
func (w *txnTransfer) errIdiom(n *ast.IfStmt, st txnState) (then, els txnState, ok bool) {
	asn, ok := n.Init.(*ast.AssignStmt)
	if !ok || len(asn.Lhs) != 1 || len(asn.Rhs) != 1 {
		return nil, nil, false
	}
	errID, ok := asn.Lhs[0].(*ast.Ident)
	if !ok {
		return nil, nil, false
	}
	call, ok := ast.Unparen(asn.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return nil, nil, false
	}
	op, recv, ok := w.rule.opOf(w.pass.Pkg.Info, call)
	if !ok {
		return nil, nil, false
	}
	bin, ok := n.Cond.(*ast.BinaryExpr)
	if !ok {
		return nil, nil, false
	}
	condID, ok := ast.Unparen(bin.X).(*ast.Ident)
	if !ok || condID.Name != errID.Name || !isNilIdent(bin.Y) {
		return nil, nil, false
	}
	var failFirst bool
	switch bin.Op {
	case token.NEQ:
		failFirst = true // then-branch is the failure branch
	case token.EQL:
		failFirst = false
	default:
		return nil, nil, false
	}

	w.checkOp(op, recv, st, call.Pos())
	succ := maps.Clone(st)
	w.applySuccess(op, recv, succ, call.Pos())
	fail := maps.Clone(st)
	w.applyFailure(op, recv, fail, call.Pos())
	if failFirst {
		return fail, succ, true
	}
	return succ, fail, true
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// isProducerType reports whether t is (a pointer to) client.Producer or
// a module type owning classified wrapper methods.
func (w *txnTransfer) isProducerType(t types.Type) bool {
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() == w.rule.module+"/internal/client" && named.Obj().Name() == "Producer" {
		return true
	}
	for wr := range w.rule.wrappers {
		if recv := signature(wr).Recv(); recv != nil {
			if rn := namedOf(recv.Type()); rn != nil && rn.Obj() == named.Obj() {
				return true
			}
		}
	}
	return false
}

// scanExpr walks an expression: nested protocol ops (result consumed by
// arbitrary code) widen their receiver to Unknown, and calls into module
// code that touches the txn machine widen everything.
func (w *txnTransfer) scanExpr(n ast.Node, st txnState) {
	inspectFrame(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op, recv, ok := w.rule.opOf(w.pass.Pkg.Info, call); ok {
			// The op runs, but its error goes somewhere we don't model:
			// check against the pre-state, then widen.
			w.checkOp(op, recv, st, call.Pos())
			delete(st, types.ExprString(recv))
			return true
		}
		if fn := calleeFunc(w.pass.Pkg.Info, call); fn != nil {
			if w.rule.graph.Node(fn) != nil && w.rule.touchesTxn(fn) {
				for k := range st {
					delete(st, k)
				}
			}
		}
		return true
	})
}

// checkOp reports protocol violations of op against the receiver's
// current state.
func (w *txnTransfer) checkOp(op string, recv ast.Expr, st txnState, pos token.Pos) {
	key := types.ExprString(recv)
	cur := st[key] // zero value = Unknown
	switch op {
	case "BeginTxn":
		if cur.kind == txnOpen {
			w.pass.Reportf(pos, "txnproto",
				"step begin: BeginTxn on %s while a transaction is already open (opened at %s)",
				key, w.pass.Fset.Position(cur.pos))
		}
	case "SendOffsetsToTxn":
		if cur.kind == txnClosed {
			w.pass.Reportf(pos, "txnproto",
				"step offsets: SendOffsetsToTxn on %s outside an open transaction (closed at %s) — offsets must ride inside the txn for exactly-once",
				key, w.pass.Fset.Position(cur.pos))
		}
	case "CommitTxn", "AbortTxn":
		if cur.kind == txnClosed {
			w.pass.Reportf(pos, "txnproto",
				"step commit: %s on %s with no open transaction: BeginTxn is not reached on this path (closed at %s)",
				op, key, w.pass.Fset.Position(cur.pos))
		}
	}
}

// applySuccess transitions the receiver's state as if op succeeded.
func (w *txnTransfer) applySuccess(op string, recv ast.Expr, st txnState, pos token.Pos) {
	key := types.ExprString(recv)
	switch op {
	case "BeginTxn":
		st[key] = txnSt{kind: txnOpen, pos: pos}
	case "CommitTxn", "AbortTxn":
		st[key] = txnSt{kind: txnClosed, pos: pos}
	case "SendOffsetsToTxn":
		// Offsets do not move the machine; a successful call implies the
		// txn was open.
		st[key] = txnSt{kind: txnOpen, pos: pos}
	}
}

// applyFailure transitions the receiver's state as if op failed.
func (w *txnTransfer) applyFailure(op string, recv ast.Expr, st txnState, pos token.Pos) {
	key := types.ExprString(recv)
	switch op {
	case "BeginTxn":
		// Failed begin: no transaction opened; keep the pre-state.
	case "CommitTxn":
		// Failed commit: the transaction is still open and must be
		// aborted by someone.
		st[key] = txnSt{kind: txnOpen, pos: pos}
	case "AbortTxn":
		// Failed abort still ends this attempt's protocol obligations.
		st[key] = txnSt{kind: txnClosed, pos: pos}
	case "SendOffsetsToTxn":
		// Failure leaves the txn as it was.
	}
}

// checkEscape fires at a return statement: if this is an error path (the
// function returns a non-nil final error expression) and some receiver
// is definitely Open, an abort must be reachable from a transitive
// caller or registered via defer.
func (w *txnTransfer) checkEscape(ret *ast.ReturnStmt, st txnState) {
	if !w.hasErr || w.deferAbort || len(ret.Results) == 0 {
		return
	}
	if isNilIdent(ret.Results[len(ret.Results)-1]) {
		return
	}
	var open []string
	for key, v := range st {
		if v.kind == txnOpen {
			open = append(open, key)
		}
	}
	if len(open) == 0 {
		return
	}
	sort.Strings(open)
	if w.rule.abortReachable(w.fn) {
		return
	}
	for _, key := range open {
		w.pass.Reportf(ret.Pos(), "txnproto",
			"step abort: error path returns with the transaction on %s still open (opened at %s) and no AbortTxn reachable in any caller — the txn leaks until the coordinator times it out",
			key, w.pass.Fset.Position(st[key].pos))
	}
}
