package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strconv"
	"strings"
)

// chanOwn enforces close ownership on channels that outlive a function:
// package-level channels and struct-field channels (DESIGN.md §12).
//
// Two checks:
//
//  1. Single closer (module-wide census): each channel class is closed
//     by exactly one function. Two closers is how shutdown races start —
//     the select-guarded `close` idiom is not atomic, so two paths that
//     both "close if not closed" can still panic; ownership means one
//     function (often a sync.Once body) performs every close and the
//     rest signal through it. Closes through a local alias
//     (stop := c.hbStop; close(stop)) count against the field.
//  2. No send after close (per function, path-sensitive): on any path
//     where a channel was closed — locals included — a later send or
//     second close on that path is a guaranteed panic. It is a
//     may-closed lattice on the dataflow engine (flow.go), the same
//     gen/kill discipline as poollife; calls are checked against
//     send summaries propagated over the call graph, so a close followed
//     by a call into a helper that sends on the same class is caught.
//
// Deferred closes are exempt from check 2's ordering (they run at
// return, after every send in the body), but count as closers in the
// census.
type chanOwn struct {
	module string
	fset   *token.FileSet
	graph  *CallGraph
}

func newChanOwn(module string) *chanOwn { return &chanOwn{module: module} }

func (*chanOwn) Name() string { return "chanown" }
func (*chanOwn) Doc() string {
	return "each long-lived channel has exactly one closing function, and no send or second close is reachable after a close on any path"
}

func (c *chanOwn) Run(p *Pass) {
	c.fset = p.Fset
	c.graph = p.Graph
}

// closeSite records one close of a channel class.
type closeSite struct {
	fn  *types.Func
	pos token.Pos
}

func (c *chanOwn) Finalize(report func(Diagnostic)) {
	if c.graph == nil {
		return
	}
	sends := c.sendSummaries()

	closers := make(map[string][]closeSite)
	var found []Diagnostic
	for _, fn := range c.graph.Funcs() {
		node := c.graph.Node(fn)
		if node == nil || node.Decl == nil || node.Decl.Body == nil {
			continue
		}
		info := node.Pkg.Info
		aliases := chanAliases(info, node.Decl.Body)
		// Census: every close in the body (func literals included — the
		// literal's close still belongs to this function's code).
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			arg, ok := isCloseCall(info, call)
			if !ok {
				return true
			}
			if cls := chanClassOf(info, arg, aliases); cls != "" {
				closers[cls] = append(closers[cls], closeSite{fn: fn, pos: call.Pos()})
			}
			return true
		})
		// Path check: close→send / close→close ordering inside the body.
		w := &coTransfer{info: info, fset: c.fset, aliases: aliases, sends: sends, graph: c.graph}
		w.lattice().walk(node.Decl.Body, coState{})
		found = append(found, w.found...)
	}

	// Census verdicts: more than one distinct closing function.
	classes := make([]string, 0, len(closers))
	for cls := range closers {
		classes = append(classes, cls)
	}
	sort.Strings(classes)
	for _, cls := range classes {
		sites := closers[cls]
		sort.Slice(sites, func(i, j int) bool {
			return c.fset.Position(sites[i].pos).String() < c.fset.Position(sites[j].pos).String()
		})
		var fns []string
		seen := make(map[*types.Func]bool)
		for _, s := range sites {
			if !seen[s.fn] {
				seen[s.fn] = true
				fns = append(fns, c.graph.displayName(s.fn))
			}
		}
		if len(fns) <= 1 {
			continue
		}
		found = append(found, Diagnostic{
			Pos:  c.fset.Position(sites[0].pos),
			Rule: "chanown",
			Message: "channel " + strings.TrimPrefix(cls, c.module+"/") + " is closed by " +
				strconv.Itoa(len(fns)) + " functions (" + strings.Join(fns, ", ") +
				"); close ownership requires exactly one — route the others through a single closing helper",
		})
	}

	sortDiags(found)
	for _, d := range found {
		report(d)
	}
}

// sendSummaries computes, to a fixpoint over the call graph, the channel
// classes each module function may send on (directly or via callees).
func (c *chanOwn) sendSummaries() map[*types.Func]map[string]bool {
	sends := make(map[*types.Func]map[string]bool)
	mark := func(fn *types.Func, cls string) bool {
		m := sends[fn]
		if m == nil {
			m = make(map[string]bool)
			sends[fn] = m
		}
		if m[cls] {
			return false
		}
		m[cls] = true
		return true
	}
	// Seed: direct sends on field / package-level channels.
	for _, fn := range c.graph.Funcs() {
		node := c.graph.Node(fn)
		if node == nil || node.Decl == nil || node.Decl.Body == nil {
			continue
		}
		info := node.Pkg.Info
		aliases := chanAliases(info, node.Decl.Body)
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			s, ok := n.(*ast.SendStmt)
			if !ok {
				return true
			}
			if cls := chanClassOf(info, s.Chan, aliases); cls != "" {
				mark(fn, cls)
			}
			return true
		})
	}
	// Propagate caller ← callee until stable.
	c.graph.fixpoint(func(fn *types.Func, node *CGNode) bool {
		changed := false
		for _, e := range node.Edges {
			for cls := range sends[e.Callee.Origin()] {
				if mark(fn, cls) {
					changed = true
				}
			}
		}
		return changed
	})
	return sends
}

// coKey identifies a channel inside the path walk: a class string for
// field / package-level channels, or the local object.
type coKey struct {
	obj types.Object
	cls string
}

func (k coKey) String() string {
	if k.cls != "" {
		return k.cls
	}
	return k.obj.Name()
}

// coState maps closed channels to their close position on this path.
type coState map[coKey]token.Pos

// coTransfer holds chanown's transfer functions for one function body:
// closes gen a closed mark, sends and second closes check it, and
// re-making a channel kills it.
type coTransfer struct {
	info    *types.Info
	fset    *token.FileSet
	aliases map[types.Object]string
	sends   map[*types.Func]map[string]bool
	graph   *CallGraph
	found   []Diagnostic
	seen    map[token.Pos]bool
}

// lattice is chanown's path lattice: may-closed, so joins take the union
// (a channel closed on either arm counts as closed afterwards), and loops
// get a second pass over the body so a close in one iteration meets the
// send in the next. Deferred closes run at return, after every send in
// the body, so a defer only evaluates its arguments.
func (w *coTransfer) lattice() *flowLattice[coState] {
	return &flowLattice[coState]{
		clone: maps.Clone[coState],
		join:  mayJoin[coState],
		stmt:  w.stmt,
		expr:  func(e ast.Expr, st coState) { w.expr(e, st) },
		loop:  func(pre, end coState) (coState, bool) { return mayJoin(pre, end), true },
	}
}

func (w *coTransfer) keyOf(e ast.Expr) (coKey, bool) {
	if cls := chanClassOf(w.info, e, w.aliases); cls != "" {
		return coKey{cls: cls}, true
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		obj := w.info.Uses[id]
		if obj == nil {
			obj = w.info.Defs[id]
		}
		if obj != nil && isChanType(obj.Type()) {
			return coKey{obj: obj}, true
		}
	}
	return coKey{}, false
}

func (w *coTransfer) report(pos token.Pos, msg string) {
	if w.seen == nil {
		w.seen = make(map[token.Pos]bool)
	}
	if w.seen[pos] {
		return
	}
	w.seen[pos] = true
	w.found = append(w.found, Diagnostic{Pos: w.fset.Position(pos), Rule: "chanown", Message: msg})
}

// stmt is the transfer for simple statements.
func (w *coTransfer) stmt(s ast.Stmt, st coState, _ bool) {
	switch x := s.(type) {
	case *ast.ExprStmt:
		w.expr(x.X, st)
	case *ast.SendStmt:
		w.checkSend(x, st)
		w.expr(x.Value, st)
	case *ast.AssignStmt:
		w.exprs(x.Rhs, st)
		// Re-making a closed channel reopens it on this path.
		for i, l := range x.Lhs {
			if k, ok := w.keyOf(l); ok && i < len(x.Rhs) {
				if call, isCall := ast.Unparen(x.Rhs[i]).(*ast.CallExpr); isCall {
					if id, isIdent := ast.Unparen(call.Fun).(*ast.Ident); isIdent && id.Name == "make" {
						delete(st, k)
					}
				}
			}
		}
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.exprs(vs.Values, st)
				}
			}
		}
	}
}

func (w *coTransfer) exprs(list []ast.Expr, st coState) {
	for _, e := range list {
		w.expr(e, st)
	}
}

// expr scans an expression for closes and calls that matter to state.
func (w *coTransfer) expr(e ast.Expr, st coState) {
	inspectFrame(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if arg, isClose := isCloseCall(w.info, call); isClose {
			if k, ok := w.keyOf(arg); ok {
				if prev, closed := st[k]; closed {
					w.report(call.Pos(), "channel "+k.String()+" closed twice on this path (previous close at "+
						w.fset.Position(prev).String()+"); closing a closed channel panics")
				} else {
					st[k] = call.Pos()
				}
			}
			return true
		}
		// A call into a function that may send on a closed class.
		if fn := calleeFunc(w.info, call); fn != nil {
			if m := w.sends[fn.Origin()]; m != nil {
				closed := make(map[string]token.Pos)
				for k, pos := range st {
					if k.cls != "" && m[k.cls] {
						closed[k.cls] = pos
					}
				}
				for _, cls := range sortedKeys(closed) { // the first class wins the call's one report
					w.report(call.Pos(), "call to "+w.graph.displayName(fn.Origin())+
						" may send on "+cls+" after it was closed at "+
						w.fset.Position(closed[cls]).String()+"; sending on a closed channel panics")
				}
			}
		}
		return true
	})
}

func (w *coTransfer) checkSend(s *ast.SendStmt, st coState) {
	k, ok := w.keyOf(s.Chan)
	if !ok {
		return
	}
	if pos, closed := st[k]; closed {
		w.report(s.Arrow, "send on "+k.String()+" after it was closed at "+
			w.fset.Position(pos).String()+"; sending on a closed channel panics")
	}
}
