package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockOrder is the static deadlock detector: it abstracts every mutex to
// a lock class (the owning type and field — all instances of
// broker.Broker.mu are one class), summarizes per function which classes
// are acquired while which are held, closes the summaries over the call
// graph (including interface-dispatch edges), and reports every cycle in
// the resulting lock-order graph as a potential deadlock with a full
// witness path.
//
// The class abstraction deliberately ignores *instances*: two different
// Partition values locked in a fixed global order would be a false
// positive, so an edge from a class to itself is skipped — the rule only
// reports cross-class cycles, where no instance ordering can save you.
//
// Per function the shared lockFlow lattice (see lockheld.go) provides the
// path-sensitive held set; the summary records
//
//   - direct acquisitions (for the may-acquire closure),
//   - direct held→acquired pairs (intra-function order edges),
//   - the held set at every call site, keyed by call position so it
//     lines up with the call-graph edges at the same position.
//
// Finalize then runs a may-acquire fixpoint over the call graph (what
// classes can this function's closure take, with a witness chain),
// derives the class digraph, and reports one finding per strongly
// connected component of two or more classes, rendered as the canonical
// cycle starting from the lexicographically smallest class.
type lockOrder struct {
	module string
	fset   *token.FileSet
	graph  *CallGraph
	sums   map[*types.Func]*lockSummary
}

func newLockOrder(module string) *lockOrder {
	return &lockOrder{module: module, sums: make(map[*types.Func]*lockSummary)}
}

func (*lockOrder) Name() string { return "lockorder" }
func (*lockOrder) Doc() string {
	return "no cycle in the module-wide lock-order graph (potential deadlock), witnessed through the call graph"
}

// lockAcq is one acquisition (or held lock): its class and a position —
// the acquire site.
type lockAcq struct {
	class string
	pos   token.Pos
}

// lockPair is a direct intra-function order edge: `to` acquired at pos
// while `from` was held.
type lockPair struct {
	from, to string
	pos      token.Pos
}

type lockSummary struct {
	acquires []lockAcq
	direct   []lockPair
	// heldAt maps a call position to the (class-sorted) locks held there;
	// the key matches CGEdge.Pos for the same call.
	heldAt map[token.Pos][]lockAcq
}

func (l *lockOrder) Run(p *Pass) {
	l.fset = p.Fset
	l.graph = p.Graph
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
			sum := &lockSummary{heldAt: make(map[token.Pos][]lockAcq)}
			l.sums[fn] = sum
			flow := lockFlow(p.Pkg.Info,
				func(recv ast.Expr) (string, bool) { return lockClassOf(p.Pkg.Info, recv) },
				func(key string, pos token.Pos, held lockset) {
					sum.acquires = append(sum.acquires, lockAcq{class: key, pos: pos})
					for _, h := range sortedLockset(held) {
						sum.direct = append(sum.direct, lockPair{from: h.class, to: key, pos: pos})
					}
				},
				func(n ast.Node, held lockset) {
					inspectFrame(n, func(x ast.Node) bool {
						if call, ok := x.(*ast.CallExpr); ok {
							sum.heldAt[call.Pos()] = sortedLockset(held)
						}
						return true
					})
				})
			// The body, then every FuncLit inside it as an independent
			// body (the call graph attributes closure calls to this
			// declaration, so the summary does too; the held set inside a
			// closure is its own).
			funcBodies(fd, func(body *ast.BlockStmt) { flow.walk(body, lockset{}) })
		}
	}
}

// sortedLockset renders a held set as class-sorted acquisitions.
func sortedLockset(held lockset) []lockAcq {
	out := make([]lockAcq, 0, len(held))
	for class, pos := range held {
		out = append(out, lockAcq{class: class, pos: pos})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].class < out[j].class })
	return out
}

// lockClassOf abstracts a mutex receiver expression to its lock class:
//
//	pt.mu.Lock()           → partition.Partition.mu   (field on a named type)
//	b.Lock()               → broker.Broker            (embedded mutex)
//	registryMu.Lock()      → obs.registryMu           (package-level var)
//	otherpkg.Mu.Lock()     → otherpkg.Mu              (qualified package var)
//
// Function-local mutexes have no cross-function ordering story and
// return ok=false, which makes the walker ignore them entirely.
func lockClassOf(info *types.Info, e ast.Expr) (string, bool) {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok {
				return pn.Imported().Name() + "." + x.Sel.Name, true
			}
		}
		if named := namedOf(info.TypeOf(x.X)); named != nil && named.Obj().Pkg() != nil {
			return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + x.Sel.Name, true
		}
		return "", false
	case *ast.Ident:
		v, ok := info.ObjectOf(x).(*types.Var)
		if !ok {
			return "", false
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name(), true
		}
		if named := namedOf(v.Type()); named != nil && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() != "sync" {
			return named.Obj().Pkg().Name() + "." + named.Obj().Name(), true
		}
		return "", false
	default:
		if named := namedOf(info.TypeOf(e)); named != nil && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() != "sync" {
			return named.Obj().Pkg().Name() + "." + named.Obj().Name(), true
		}
		return "", false
	}
}

// namedOf returns the named type behind t (through one pointer), or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// acqWitness explains how a function's closure acquires a class: the
// call chain below the function (empty when it acquires directly) and
// the acquire site.
type acqWitness struct {
	chain []*types.Func
	pos   token.Pos
}

// orderEdge is one class-digraph edge with its first (deterministic)
// witness rendering.
type orderEdge struct {
	witness string
	pos     token.Pos
}

func (l *lockOrder) Finalize(report func(Diagnostic)) {
	if l.graph == nil {
		return
	}
	g := l.graph
	fns := g.Funcs()

	// May-acquire closure with witness back-pointers. Iteration order is
	// fixed (sorted functions, sorted edges, sorted classes) and a class
	// keeps its first witness, so the result is run-to-run stable.
	may := make(map[*types.Func]map[string]acqWitness)
	for _, fn := range fns {
		m := make(map[string]acqWitness)
		if sum := l.sums[fn]; sum != nil {
			for _, a := range sum.acquires {
				if _, ok := m[a.class]; !ok {
					m[a.class] = acqWitness{pos: a.pos}
				}
			}
		}
		may[fn] = m
	}
	g.fixpoint(func(fn *types.Func, node *CGNode) bool {
		m, changed := may[fn], false
		for _, e := range node.Edges {
			cm := may[e.Callee.Origin()]
			if cm == nil {
				continue
			}
			for _, class := range sortedKeys(cm) {
				if _, ok := m[class]; ok {
					continue
				}
				w := cm[class]
				m[class] = acqWitness{
					chain: append([]*types.Func{e.Callee.Origin()}, w.chain...),
					pos:   w.pos,
				}
				changed = true
			}
		}
		return changed
	})

	// The class digraph. First witness per (from,to) wins; self-edges are
	// skipped — same-class ordering is an instance question this
	// abstraction cannot decide.
	edges := make(map[string]map[string]orderEdge)
	addEdge := func(from, to string, e orderEdge) {
		if from == to {
			return
		}
		if edges[from] == nil {
			edges[from] = make(map[string]orderEdge)
		}
		if _, ok := edges[from][to]; !ok {
			edges[from][to] = e
		}
	}
	for _, fn := range fns {
		sum := l.sums[fn]
		if sum == nil {
			continue
		}
		for _, d := range sum.direct {
			addEdge(d.from, d.to, orderEdge{
				witness: fmt.Sprintf("%s (Lock at %s)", g.displayName(fn), l.fset.Position(d.pos)),
				pos:     d.pos,
			})
		}
		for _, e := range g.Node(fn).Edges {
			held := sum.heldAt[e.Pos]
			if len(held) == 0 {
				continue
			}
			cm := may[e.Callee.Origin()]
			if len(cm) == 0 {
				continue
			}
			for _, class := range sortedKeys(cm) {
				w := cm[class]
				parts := []string{g.displayName(fn), g.displayName(e.Callee)}
				for _, c := range w.chain {
					parts = append(parts, g.displayName(c))
				}
				witness := fmt.Sprintf("%s (Lock at %s)", strings.Join(parts, " → "), l.fset.Position(w.pos))
				for _, h := range held {
					addEdge(h.class, class, orderEdge{witness: witness, pos: w.pos})
				}
			}
		}
	}

	// Cycles: Tarjan SCC over the class digraph with sorted adjacency,
	// one finding per component of two or more classes.
	classes := sortedKeys(edges)
	seenClass := make(map[string]bool)
	for _, c := range classes {
		seenClass[c] = true
	}
	for _, m := range edges {
		for _, to := range sortedKeys(m) {
			if !seenClass[to] {
				seenClass[to] = true
				classes = append(classes, to)
			}
		}
	}
	sort.Strings(classes)
	for _, scc := range stronglyConnected(classes, edges) {
		if len(scc) < 2 {
			continue
		}
		cycle := canonicalCycle(scc, edges)
		if cycle == nil {
			continue
		}
		var names, parts []string
		for _, c := range cycle {
			names = append(names, c)
		}
		names = append(names, cycle[0])
		for i, c := range cycle {
			next := cycle[(i+1)%len(cycle)]
			e := edges[c][next]
			parts = append(parts, fmt.Sprintf("%s → %s via %s", c, next, e.witness))
		}
		first := edges[cycle[0]][cycle[1%len(cycle)]]
		report(Diagnostic{
			Pos:  l.fset.Position(first.pos),
			Rule: "lockorder",
			Message: fmt.Sprintf("potential deadlock: lock-order cycle %s; %s",
				strings.Join(names, " → "), strings.Join(parts, "; ")),
		})
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// stronglyConnected is Tarjan's algorithm (iterative via recursion on a
// small class set is fine) over the class digraph, visiting nodes and
// neighbors in sorted order so component order is deterministic.
func stronglyConnected(classes []string, edges map[string]map[string]orderEdge) [][]string {
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]string
	next := 0
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range sortedKeys(edges[v]) {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Strings(scc)
			sccs = append(sccs, scc)
		}
	}
	for _, c := range classes {
		if _, seen := index[c]; !seen {
			strongconnect(c)
		}
	}
	return sccs
}

// canonicalCycle extracts one concrete cycle from an SCC: the shortest
// path (BFS, sorted neighbors) from the lexicographically smallest class
// back to itself, staying inside the component.
func canonicalCycle(scc []string, edges map[string]map[string]orderEdge) []string {
	in := make(map[string]bool, len(scc))
	for _, c := range scc {
		in[c] = true
	}
	start := scc[0] // scc is sorted
	type qe struct{ path []string }
	queue := []qe{{path: []string{start}}}
	visited := map[string]bool{}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		last := cur.path[len(cur.path)-1]
		for _, n := range sortedKeys(edges[last]) {
			if !in[n] {
				continue
			}
			if n == start && len(cur.path) > 1 {
				return cur.path
			}
			if n == start || visited[n] {
				continue
			}
			visited[n] = true
			queue = append(queue, qe{path: append(append([]string(nil), cur.path...), n)})
		}
	}
	// A 2-cycle a→b→a always resolves above; an SCC that somehow does
	// not yield a cycle is skipped rather than mis-reported.
	return nil
}
