package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// This file is the interprocedural layer of kslint: a module-wide call
// graph the taint- and summary-based rules (wallclock, lockorder,
// txnproto) query. Nodes are declared module functions; edges are call
// sites. Two dispatch mechanisms are modeled:
//
//   - static dispatch: the callee an identifier or selector resolves to,
//     including stdlib functions (which become leaf targets with no node
//     of their own — useful as taint sources);
//   - interface dispatch: a call through an interface method gets one
//     edge to the interface method itself (the seam checks key off it,
//     e.g. "went through retry.Clock") plus one edge per module type
//     that implements the interface, resolved to that type's concrete
//     method. This is what lets a rule see a txn or clock violation hide
//     behind an interface implemented in another package.
//
// Calls inside a FuncLit are attributed to the enclosing declared
// function: the closure runs on the declarer's behalf (often on another
// goroutine it spawned), so for may-reach summaries that attribution is
// the sound one. A func literal bound at package level has no enclosing
// declaration and so no node; callEdges resolves its calls on demand.
// Dynamic calls through plain function values are not modeled; none of
// the invariants kslint checks flow through them today.
//
// Every accessor returns deterministically ordered slices (sorted by
// FuncID, then position) so diagnostics built from graph walks are
// byte-identical across runs.

// CGEdge is one call site: the resolved callee and where the call occurs.
type CGEdge struct {
	Callee *types.Func
	Pos    token.Pos
	// Dispatch marks how the callee was resolved: a direct static call,
	// the interface method a dynamic call names, or a concrete method the
	// interface resolution added.
	Dispatch DispatchKind
}

// DispatchKind classifies a call edge.
type DispatchKind int

const (
	// StaticCall is a direct call to a known function or method.
	StaticCall DispatchKind = iota
	// InterfaceCall is a dynamic call through an interface method.
	InterfaceCall
	// ImplCall is a synthesized edge from an interface call site to a
	// module type's concrete method implementing it.
	ImplCall
)

// CGNode is one declared module function with its outgoing call sites.
type CGNode struct {
	Fn    *types.Func
	Decl  *ast.FuncDecl
	Pkg   *Package
	Edges []CGEdge // sorted by position, then callee id
}

// CallGraph is the module-wide graph. Build it with BuildCallGraph; all
// query methods are read-only and safe to share across analyzers.
type CallGraph struct {
	module  string
	fset    *token.FileSet
	nodes   map[*types.Func]*CGNode
	order   []*types.Func // nodes sorted by FuncID
	callers map[*types.Func][]*types.Func
	// concrete lists the named types interface dispatch resolves
	// against; implCache memoizes each interface method's resolution.
	concrete  []types.Type
	implCache map[*types.Func][]*types.Func
}

// BuildCallGraph constructs the graph over every package of the module
// view. Interface-method resolution considers the named types of those
// same packages (a fixture Module restricted to two packages resolves
// only between them, which is what the dispatch tests rely on).
func BuildCallGraph(mod *Module) *CallGraph {
	g := &CallGraph{
		module:    mod.Path,
		fset:      mod.Fset,
		nodes:     make(map[*types.Func]*CGNode),
		callers:   make(map[*types.Func][]*types.Func),
		implCache: make(map[*types.Func][]*types.Func),
	}
	// Pass 1: nodes for every declared function.
	for _, pkg := range mod.Pkgs {
		for fn, decl := range pkg.Funcs {
			g.nodes[fn] = &CGNode{Fn: fn, Decl: decl, Pkg: pkg}
		}
	}
	// The named types interface dispatch resolves against.
	for _, pkg := range mod.Pkgs {
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			g.concrete = append(g.concrete, named)
		}
	}
	// Pass 2: edges.
	for _, node := range g.nodes {
		if node.Decl.Body != nil {
			node.Edges = g.callEdges(node.Pkg.Info, node.Decl.Body)
		}
		g.order = append(g.order, node.Fn)
	}
	sort.Slice(g.order, func(i, j int) bool { return FuncID(g.order[i]) < FuncID(g.order[j]) })
	for _, fn := range g.order {
		seen := make(map[*types.Func]bool)
		for _, e := range g.nodes[fn].Edges {
			if g.nodes[e.Callee] != nil && !seen[e.Callee] {
				seen[e.Callee] = true
				g.callers[e.Callee] = append(g.callers[e.Callee], fn)
			}
		}
	}
	return g
}

// callEdges resolves every call site under body (func literals
// included), in deterministic order: by position, then dispatch kind,
// then callee id.
func (g *CallGraph) callEdges(info *types.Info, body ast.Node) []CGEdge {
	var edges []CGEdge
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(info, call)
		if callee == nil {
			return true
		}
		callee = callee.Origin()
		if iface := interfaceRecv(callee); iface != nil {
			edges = append(edges, CGEdge{Callee: callee, Pos: call.Pos(), Dispatch: InterfaceCall})
			impls, cached := g.implCache[callee]
			if !cached {
				impls = resolveImpls(callee, iface, g.concrete, g.nodes)
				g.implCache[callee] = impls
			}
			for _, impl := range impls {
				edges = append(edges, CGEdge{Callee: impl, Pos: call.Pos(), Dispatch: ImplCall})
			}
			return true
		}
		edges = append(edges, CGEdge{Callee: callee, Pos: call.Pos(), Dispatch: StaticCall})
		return true
	})
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.Pos != b.Pos {
			return a.Pos < b.Pos
		}
		if a.Dispatch != b.Dispatch {
			return a.Dispatch < b.Dispatch
		}
		return FuncID(a.Callee) < FuncID(b.Callee)
	})
	return edges
}

// interfaceRecv returns the interface type fn is a method of, or nil.
func interfaceRecv(fn *types.Func) *types.Interface {
	recv := signature(fn).Recv()
	if recv == nil {
		return nil
	}
	iface, _ := recv.Type().Underlying().(*types.Interface)
	return iface
}

// resolveImpls finds, among the module's concrete named types, the
// methods implementing iface's method fn — restricted to methods the
// graph has a node for (declared in the module view).
func resolveImpls(fn *types.Func, iface *types.Interface, concrete []types.Type, nodes map[*types.Func]*CGNode) []*types.Func {
	var out []*types.Func
	seen := make(map[*types.Func]bool)
	for _, t := range concrete {
		ptr := types.NewPointer(t)
		if !types.Implements(t, iface) && !types.Implements(ptr, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, fn.Pkg(), fn.Name())
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		m = m.Origin()
		if nodes[m] != nil && !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return FuncID(out[i]) < FuncID(out[j]) })
	return out
}

// Node returns fn's node, or nil when fn has no body in the module view.
func (g *CallGraph) Node(fn *types.Func) *CGNode {
	if fn == nil {
		return nil
	}
	return g.nodes[fn.Origin()]
}

// Funcs returns every declared function, sorted by FuncID.
func (g *CallGraph) Funcs() []*types.Func { return g.order }

// Callers returns the declared functions with at least one edge to fn,
// sorted by FuncID.
func (g *CallGraph) Callers(fn *types.Func) []*types.Func {
	if fn == nil {
		return nil
	}
	return g.callers[fn.Origin()]
}

// PathStep is one hop of a witness path: the function (or leaf callee)
// reached and the call site that reached it.
type PathStep struct {
	Fn  *types.Func
	Pos token.Pos
}

// FindPath runs a breadth-first search from `from` and returns the
// shortest chain of call edges to the first callee for which hit returns
// true. Traversal descends only into module functions and skips any
// function for which skip returns true (skip may be nil). hit is tested
// on edge targets — including leaf callees like stdlib functions — so a
// taint rule can search for "a call that lands on time.Sleep". The
// returned steps exclude `from` itself; nil means no path. Ties break on
// edge order, so the result is deterministic.
func (g *CallGraph) FindPath(from *types.Func, hit func(*types.Func) bool, skip func(*types.Func) bool) []PathStep {
	start := g.Node(from)
	if start == nil {
		return nil
	}
	return g.findPath(start.Edges, map[*types.Func]bool{start.Fn: true}, hit, skip)
}

// findPath is FindPath's search from a set of first-hop call edges;
// visited holds the functions not to re-enter.
func (g *CallGraph) findPath(first []CGEdge, visited map[*types.Func]bool, hit func(*types.Func) bool, skip func(*types.Func) bool) []PathStep {
	type queued struct {
		edges []CGEdge
		path  []PathStep
	}
	queue := []queued{{edges: first}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range cur.edges {
			if skip != nil && skip(e.Callee) {
				continue
			}
			step := append(append([]PathStep(nil), cur.path...), PathStep{Fn: e.Callee, Pos: e.Pos})
			if hit(e.Callee) {
				return step
			}
			if next := g.nodes[e.Callee]; next != nil && !visited[e.Callee] {
				visited[e.Callee] = true
				queue = append(queue, queued{edges: next.Edges, path: step})
			}
		}
	}
	return nil
}

// fixpoint is the one bottom-up summary loop the interprocedural rules
// share: it calls step on every declared function in FuncID order, round
// after round, until a round in which no call reports a change. Steps
// must be monotone (summaries only grow), which is what makes the loop
// terminate; the fixed order keeps first-found witnesses deterministic.
func (g *CallGraph) fixpoint(step func(fn *types.Func, node *CGNode) bool) {
	for changed := true; changed; {
		changed = false
		for _, fn := range g.order {
			if step(fn, g.nodes[fn]) {
				changed = true
			}
		}
	}
}

// reachSet is the result of a multi-source breadth-first walk over the
// module's declared functions: the functions reached, in visit order,
// with parent links back to the root that reached each first.
type reachSet struct {
	g      *CallGraph
	order  []*types.Func
	in     map[*types.Func]bool
	parent map[*types.Func]*types.Func
}

// reach walks from roots (in the given order) along call edges into
// functions with a body, never entering one for which stop returns true
// (stop may be nil). Ties break on edge order, so parent links — and the
// chains rendered from them — are deterministic.
func (g *CallGraph) reach(roots []*types.Func, stop func(*types.Func) bool) *reachSet {
	r := &reachSet{g: g, in: make(map[*types.Func]bool), parent: make(map[*types.Func]*types.Func)}
	enter := func(fn, from *types.Func) {
		if r.in[fn] || (stop != nil && stop(fn)) {
			return
		}
		if n := g.nodes[fn]; n == nil || n.Decl == nil {
			return // stdlib and external leaves are checked at the edge, not entered
		}
		r.in[fn] = true
		if from != nil {
			r.parent[fn] = from
		}
		r.order = append(r.order, fn)
	}
	for _, fn := range roots {
		enter(fn.Origin(), nil)
	}
	for i := 0; i < len(r.order); i++ {
		fn := r.order[i]
		for _, e := range g.nodes[fn].Edges {
			enter(e.Callee.Origin(), fn)
		}
	}
	return r
}

// chain renders the path from fn's root to fn: "root → … → fn".
func (r *reachSet) chain(fn *types.Func) string {
	var names []string
	for f := fn; f != nil; f = r.parent[f] {
		names = append(names, r.g.displayName(f))
	}
	slices.Reverse(names)
	return strings.Join(names, " → ")
}

// FuncID is the stable, fully-qualified identity of a function used for
// ordering and debug dumps: pkgpath.Type.Method or pkgpath.Func.
func FuncID(fn *types.Func) string {
	if fn == nil {
		return "<nil>"
	}
	name := fn.Name()
	if recv := signature(fn).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		switch tt := t.(type) {
		case *types.Named:
			name = tt.Obj().Name() + "." + name
		default:
			name = t.String() + "." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + name
	}
	return name
}

// displayName renders fn compactly for diagnostics: the module prefix is
// trimmed so witness chains stay readable (internal/broker.Broker.fetch).
func (g *CallGraph) displayName(fn *types.Func) string {
	return g.trimModule(FuncID(fn))
}

func (g *CallGraph) trimModule(id string) string {
	if rest, ok := strings.CutPrefix(id, g.module+"/"); ok {
		return rest
	}
	return strings.TrimPrefix(id, g.module+".")
}

// renderPath formats "A → B → C" for a witness chain starting at from
// (already a display name).
func (g *CallGraph) renderPath(from string, steps []PathStep) string {
	parts := []string{from}
	for _, s := range steps {
		parts = append(parts, g.displayName(s.Fn))
	}
	return strings.Join(parts, " → ")
}

// Dump writes the whole graph in FuncID order, one "caller -> callee"
// line per edge annotated with the dispatch kind and call position —
// the kslint -graph debug view.
func (g *CallGraph) Dump() string {
	var b strings.Builder
	kind := map[DispatchKind]string{StaticCall: "static", InterfaceCall: "iface", ImplCall: "impl"}
	for _, fn := range g.order {
		node := g.nodes[fn]
		if len(node.Edges) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s:\n", FuncID(fn))
		for _, e := range node.Edges {
			pos := g.fset.Position(e.Pos)
			fmt.Fprintf(&b, "  -> %s [%s] at %s:%d\n", FuncID(e.Callee), kind[e.Dispatch], pos.Filename, pos.Line)
		}
	}
	return b.String()
}
