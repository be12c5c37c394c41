package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
)

// poolLife checks the lifetime discipline of pooled buffers: a value
// obtained from a sync.Pool (or from the batch-frame pool behind
// protocol.GetFrameBuf) must not be used, aliased into a live value, or
// released a second time after it has been handed back. The pool may
// recycle the memory to another goroutine the moment Put returns, so a
// late read is a data race and a double Put corrupts the free list.
//
// The analysis is a per-function gen/kill lattice on the dataflow engine
// (flow.go): acquiring binds the assigned identifier to a fresh lifetime
// token, aliasing assignments join later identifiers to the same token,
// and a release call kills the token on the current path. Branches fork
// the path state and re-join on the union of releases — a buffer released
// on either arm of an if is treated as released afterwards — except that
// terminating branches (release-and-return error paths, the idiom the WAL
// append path uses) do not poison the fall-through. Two escape summaries
// are propagated over the call graph so the rule sees through helpers:
// "returns a pooled value" (a wrapper around Get) and "releases parameter
// i" (a wrapper around Put).
//
// Approximations, on the safe-for-signal side: closures are walked as
// independent bodies (a capture that outlives the enclosing release is
// not tracked), and a release inside a loop body is not propagated to the
// next iteration.
type poolLife struct {
	module string
	graph  *CallGraph
	sum    *poolSummaries
}

func newPoolLife(module string) *poolLife { return &poolLife{module: module} }

func (*poolLife) Name() string { return "poollife" }
func (*poolLife) Doc() string {
	return "no use, alias, or second Put of a pooled buffer after it was released to its pool"
}

// poolSummaries are the interprocedural facts: which module functions hand
// out pooled values and which release an argument on the caller's behalf.
type poolSummaries struct {
	returnsPooled map[*types.Func]bool
	releases      map[*types.Func]map[int]bool
}

// summaries computes (and memoizes per graph) the fixpoint of both escape
// summaries over every declared function.
func (a *poolLife) summaries(g *CallGraph) *poolSummaries {
	if a.sum != nil && a.graph == g {
		return a.sum
	}
	s := &poolSummaries{
		returnsPooled: make(map[*types.Func]bool),
		releases:      make(map[*types.Func]map[int]bool),
	}
	g.fixpoint(func(fn *types.Func, node *CGNode) bool {
		if node.Decl == nil || node.Decl.Body == nil {
			return false
		}
		changed := false
		if !s.returnsPooled[fn] && a.fnReturnsPooled(node, s) {
			s.returnsPooled[fn] = true
			changed = true
		}
		for _, idx := range a.fnReleasedParams(node, s) {
			if s.releases[fn] == nil {
				s.releases[fn] = make(map[int]bool)
			}
			if !s.releases[fn][idx] {
				s.releases[fn][idx] = true
				changed = true
			}
		}
		return changed
	})
	a.graph, a.sum = g, s
	return s
}

// poolSource reports whether call yields a pooled value: sync.Pool.Get,
// the module's frame pool, or a summarized wrapper.
func (a *poolLife) poolSource(info *types.Info, call *ast.CallExpr, s *poolSummaries) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	fn = fn.Origin()
	return isMethod(fn, "sync", "Pool", "Get") ||
		isPkgFunc(fn, a.module+"/internal/protocol", "GetFrameBuf") ||
		s.returnsPooled[fn]
}

// releaseArgs returns the argument indexes call releases back to a pool
// (nil when it is not a releasing call).
func (a *poolLife) releaseArgs(info *types.Info, call *ast.CallExpr, s *poolSummaries) []int {
	fn := calleeFunc(info, call)
	if fn == nil {
		return nil
	}
	fn = fn.Origin()
	if isMethod(fn, "sync", "Pool", "Put") || isPkgFunc(fn, a.module+"/internal/protocol", "PutFrameBuf") {
		return []int{0}
	}
	m := s.releases[fn]
	if len(m) == 0 {
		return nil
	}
	out := make([]int, 0, len(m))
	for i := range m {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// unwrapToCall strips parens and type assertions (the sync.Pool.Get
// idiom: framePool.Get().(*[]byte)) down to a call expression, if any.
func unwrapToCall(e ast.Expr) *ast.CallExpr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			c, _ := e.(*ast.CallExpr)
			return c
		}
	}
}

// fnReturnsPooled reports whether node's function returns a pooled value,
// directly or via a local bound to one (flow-insensitive, one pass).
func (a *poolLife) fnReturnsPooled(node *CGNode, s *poolSummaries) bool {
	info := node.Pkg.Info
	pooled := make(map[types.Object]bool)
	isPooledExpr := func(e ast.Expr) bool {
		if c := unwrapToCall(e); c != nil {
			return a.poolSource(info, c, s)
		}
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			return pooled[info.Uses[id]]
		}
		return false
	}
	found := false
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i := range x.Rhs {
				id, ok := x.Lhs[i].(*ast.Ident)
				if !ok || !isPooledExpr(x.Rhs[i]) {
					continue
				}
				if obj := info.Defs[id]; obj != nil {
					pooled[obj] = true
				} else if obj := info.Uses[id]; obj != nil {
					pooled[obj] = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if isPooledExpr(r) {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// fnReleasedParams returns the parameter indexes node's function (possibly
// conditionally) releases, deferred releases included: either way the
// value is back in the pool by the time the function returns.
func (a *poolLife) fnReleasedParams(node *CGNode, s *poolSummaries) []int {
	sig := signature(node.Fn)
	if sig.Params().Len() == 0 {
		return nil
	}
	info := node.Pkg.Info
	params := make(map[types.Object]int, sig.Params().Len())
	for i := 0; i < sig.Params().Len(); i++ {
		params[sig.Params().At(i)] = i
	}
	var out []int
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, ai := range a.releaseArgs(info, call, s) {
			if ai >= len(call.Args) {
				continue
			}
			if id, ok := ast.Unparen(call.Args[ai]).(*ast.Ident); ok {
				if pi, ok := params[info.Uses[id]]; ok {
					out = append(out, pi)
				}
			}
		}
		return true
	})
	return out
}

func (a *poolLife) Run(p *Pass) {
	w := &plTransfer{pass: p, rule: a, sum: a.summaries(p.Graph), seen: make(map[token.Pos]bool)}
	flow := w.lattice()
	for _, f := range p.Pkg.Files {
		funcBodies(f, func(body *ast.BlockStmt) { flow.walk(body, newPlState()) })
	}
}

// plToken is one pooled-buffer lifetime: shared by every alias of the
// value, so a release through any name kills them all.
type plToken struct {
	name string
	pos  token.Pos
}

// plState is one path's view: identifier bindings, tokens released so
// far, and tokens with a pending deferred release.
type plState struct {
	bind     map[types.Object]*plToken
	released map[*plToken]token.Pos
	deferred map[*plToken]token.Pos
}

func newPlState() *plState {
	return &plState{
		bind:     make(map[types.Object]*plToken),
		released: make(map[*plToken]token.Pos),
		deferred: make(map[*plToken]token.Pos),
	}
}

// plTransfer holds poollife's transfer functions for one package.
type plTransfer struct {
	pass *Pass
	rule *poolLife
	sum  *poolSummaries
	seen map[token.Pos]bool // report dedup across re-scanned subtrees
}

// lattice is poollife's path lattice: may-released, so joins take the
// union (a buffer released on either arm of an if counts as released
// afterwards), and a release inside a loop body is not carried past the
// loop or into the next iteration.
func (w *plTransfer) lattice() *flowLattice[*plState] {
	return &flowLattice[*plState]{
		clone: func(st *plState) *plState {
			return &plState{bind: maps.Clone(st.bind), released: maps.Clone(st.released), deferred: maps.Clone(st.deferred)}
		},
		join: func(a, b *plState) *plState {
			mayJoin(a.bind, b.bind)
			mayJoin(a.released, b.released)
			mayJoin(a.deferred, b.deferred)
			return a
		},
		stmt: w.stmt,
		expr: func(e ast.Expr, st *plState) { w.checkUses(e, st) },
		deferStmt: func(d *ast.DeferStmt, st *plState) {
			if idxs := w.rule.releaseArgs(w.pass.Pkg.Info, d.Call, w.sum); idxs != nil {
				w.release(d.Call, idxs, st, true)
				return
			}
			for _, a := range d.Call.Args {
				w.checkUses(a, st)
			}
		},
		loop: func(pre, _ *plState) (*plState, bool) { return pre, false },
	}
}

func (w *plTransfer) report(pos token.Pos, format string, args ...any) {
	if w.seen[pos] {
		return
	}
	w.seen[pos] = true
	w.pass.Reportf(pos, "poollife", format, args...)
}

// checkUses reports any read of an identifier whose token is released on
// this path. FuncLits are skipped (walked as independent bodies).
func (w *plTransfer) checkUses(n ast.Node, st *plState) {
	info := w.pass.Pkg.Info
	inspectFrame(n, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		tok := st.bind[info.Uses[id]]
		if tok == nil {
			return true
		}
		if rel, released := st.released[tok]; released {
			w.report(id.Pos(), "pooled buffer %s used after release (released at %s): the pool may already have handed the memory to another goroutine",
				tok.name, w.pass.Fset.Position(rel))
		}
		return true
	})
}

// tokenOf resolves an argument expression to the lifetime token it names.
func (w *plTransfer) tokenOf(e ast.Expr, st *plState) *plToken {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return st.bind[w.pass.Pkg.Info.Uses[id]]
	}
	return nil
}

// release processes a releasing call: double-release detection, then the
// kill (or, for defers, the pending-release mark).
func (w *plTransfer) release(call *ast.CallExpr, idxs []int, st *plState, isDefer bool) {
	fset := w.pass.Fset
	releasing := make(map[int]bool, len(idxs))
	for _, i := range idxs {
		releasing[i] = true
	}
	for ai, arg := range call.Args {
		if !releasing[ai] {
			w.checkUses(arg, st)
			continue
		}
		tok := w.tokenOf(arg, st)
		if tok == nil {
			continue
		}
		if prev, ok := st.released[tok]; ok {
			w.report(call.Pos(), "pooled buffer %s released twice (already released at %s): a double Put corrupts the pool",
				tok.name, fset.Position(prev))
			continue
		}
		if isDefer {
			if prev, ok := st.deferred[tok]; ok {
				w.report(call.Pos(), "pooled buffer %s released twice (deferred release already pending from %s): a double Put corrupts the pool",
					tok.name, fset.Position(prev))
				continue
			}
			st.deferred[tok] = call.Pos()
			continue
		}
		if def, ok := st.deferred[tok]; ok {
			w.report(call.Pos(), "pooled buffer %s released here and again by the deferred release at %s: a double Put corrupts the pool",
				tok.name, fset.Position(def))
		}
		st.released[tok] = call.Pos()
	}
}

// exprStmt handles a statement-position expression: release calls get
// gen/kill treatment, everything else a use scan.
func (w *plTransfer) exprStmt(e ast.Expr, st *plState) {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		if idxs := w.rule.releaseArgs(w.pass.Pkg.Info, call, w.sum); idxs != nil {
			w.checkUses(call.Fun, st)
			w.release(call, idxs, st, false)
			return
		}
	}
	w.checkUses(e, st)
}

// poolAliasType limits alias propagation to pointer- and slice-typed
// bindings: a call result like (pos, err) must not join the token just
// because the buffer appeared among the arguments.
func poolAliasType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice:
		return true
	}
	return false
}

// aliasToken returns the token e's value may alias, skipping fresh
// allocations and size queries (make/new/len/cap/copy roots).
func (w *plTransfer) aliasToken(e ast.Expr, st *plState) *plToken {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if _, builtin := w.pass.Pkg.Info.Uses[id].(*types.Builtin); builtin {
				switch id.Name {
				case "make", "new", "len", "cap", "copy":
					return nil
				}
			}
		}
	}
	info := w.pass.Pkg.Info
	var tok *plToken
	inspectFrame(e, func(x ast.Node) bool {
		if tok != nil {
			return false
		}
		if id, ok := x.(*ast.Ident); ok {
			tok = st.bind[info.Uses[id]]
		}
		return true
	})
	return tok
}

// bindLHS binds one assignment target. Pooled-source results gen a fresh
// token; alias-capable RHS joins the existing token; anything else clears
// a stale binding.
func (w *plTransfer) bindLHS(lhs, rhs ast.Expr, st *plState) {
	info := w.pass.Pkg.Info
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	if obj == nil {
		return
	}
	if c := unwrapToCall(rhs); c != nil && w.rule.poolSource(info, c, w.sum) {
		st.bind[obj] = &plToken{name: id.Name, pos: rhs.Pos()}
		return
	}
	if poolAliasType(obj.Type()) {
		if tok := w.aliasToken(rhs, st); tok != nil {
			st.bind[obj] = tok
			return
		}
	}
	delete(st.bind, obj)
}

func (w *plTransfer) assign(lhs, rhs []ast.Expr, st *plState) {
	for _, r := range rhs {
		w.checkUses(r, st)
	}
	for _, l := range lhs {
		if _, isIdent := l.(*ast.Ident); !isIdent {
			w.checkUses(l, st) // *buf = ..., s.f = ...: reads the base
		}
	}
	switch {
	case len(lhs) == len(rhs):
		for i := range lhs {
			w.bindLHS(lhs[i], rhs[i], st)
		}
	case len(rhs) == 1 && len(lhs) > 1:
		// Multi-value: only a pooled source in result 0 (the comma-ok
		// type-assert idiom) gens; no alias join through call results.
		if c := unwrapToCall(rhs[0]); c != nil && w.rule.poolSource(w.pass.Pkg.Info, c, w.sum) {
			w.bindLHS(lhs[0], rhs[0], st)
		}
	}
}

// stmt is the transfer for simple statements.
func (w *plTransfer) stmt(s ast.Stmt, st *plState, _ bool) {
	switch x := s.(type) {
	case *ast.ExprStmt:
		w.exprStmt(x.X, st)
	case *ast.AssignStmt:
		w.assign(x.Lhs, x.Rhs, st)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) == 0 {
					continue
				}
				lhs := make([]ast.Expr, len(vs.Names))
				for i, n := range vs.Names {
					lhs[i] = n
				}
				w.assign(lhs, vs.Values, st)
			}
		}
	case *ast.SendStmt:
		w.checkUses(x.Chan, st)
		w.checkUses(x.Value, st)
	case *ast.IncDecStmt:
		w.checkUses(x.X, st)
	}
}
