package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// spinLoop forbids busy-wait loops on the hot path. Using hotalloc's
// policy roots (`//kslint:hotpath` doc markers, `//kslint:coldpath`
// seams), every function reachable from a root is scanned for loops that
// can spin without yielding: a `for {}` or `for cond {}` whose body —
// conditions included — performs no blocking operation on any iteration:
// no channel send or receive (a `select` with `default` does not block in
// its comm clauses; one without `default` does), no range over a channel,
// no sync.Cond.Wait / WaitGroup.Wait / clock or timer wait, and no call
// into a module function that may block (a fixpoint summary over the call
// graph, so `for p.hw <= last { p.waitLocked(dl) }` is fine because
// waitLocked parks on its cond var). Counted `for i := ...; i < n; i++`
// loops and ranges over collections are bounded work, not waits, and are
// skipped.
//
// The finding carries the hot chain from the root, hotalloc-style, so the
// reader sees why the loop is considered hot.
type spinLoop struct {
	module string
	fset   *token.FileSet
	graph  *CallGraph
}

func newSpinLoop(module string) *spinLoop { return &spinLoop{module: module} }

func (*spinLoop) Name() string { return "spinloop" }
func (*spinLoop) Doc() string {
	return "no loop reachable from a //kslint:hotpath root can busy-spin: every unbounded loop blocks on a channel, cond, or clock each iteration"
}

func (s *spinLoop) Run(p *Pass) {
	s.fset = p.Fset
	s.graph = p.Graph
}

func (s *spinLoop) Finalize(report func(Diagnostic)) {
	if s.graph == nil {
		return
	}
	hot, _ := hotRegion(s.graph)
	if hot == nil {
		return
	}
	blocks := s.blockSummaries()

	var found []Diagnostic
	for _, fn := range s.graph.Funcs() {
		if !hot.in[fn] {
			continue
		}
		node := s.graph.Node(fn)
		if node.Decl == nil || node.Decl.Body == nil {
			continue
		}
		where := "hot via " + hot.chain(fn)
		for _, pos := range spinLoops(node.Pkg.Info, node.Decl.Body, blocks) {
			found = append(found, Diagnostic{
				Pos:  s.fset.Position(pos),
				Rule: "spinloop",
				Message: "loop can busy-spin (" + where + "): no channel operation, cond/clock wait, " +
					"or blocking call on its iteration path and no bound; add a blocking arm or bound the loop",
			})
		}
	}
	sortDiags(found)
	for _, d := range found {
		report(d)
	}
}

// blockSummaries computes, to a fixpoint, whether each module function
// may block: a direct blocking construct in its body, or a call to a
// function that may.
func (s *spinLoop) blockSummaries() map[*types.Func]bool {
	blocks := make(map[*types.Func]bool)
	for _, fn := range s.graph.Funcs() {
		node := s.graph.Node(fn)
		if node == nil || node.Decl == nil || node.Decl.Body == nil {
			continue
		}
		if directlyBlocks(node.Pkg.Info, node.Decl.Body) {
			blocks[fn] = true
		}
	}
	s.graph.fixpoint(func(fn *types.Func, node *CGNode) bool {
		if blocks[fn] {
			return false
		}
		for _, e := range node.Edges {
			if blocks[e.Callee.Origin()] || blockingStdlib(e.Callee) {
				blocks[fn] = true
				return true
			}
		}
		return false
	})
	return blocks
}

// blockingStdlib recognizes blocking leaves outside the module.
func blockingStdlib(fn *types.Func) bool {
	return isPkgFunc(fn, "time", "Sleep") ||
		isMethod(fn, "sync", "Cond", "Wait") ||
		isMethod(fn, "sync", "WaitGroup", "Wait") ||
		isPkgFunc(fn, "runtime", "Gosched")
}

// directlyBlocks reports whether body contains a blocking construct
// outside spawned-goroutine literals: a send/receive not under a
// select-with-default comm, a select without default, a range over a
// channel, or a blocking stdlib call.
func directlyBlocks(info *types.Info, body ast.Node) bool {
	blocking := false
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if blocking {
				return false
			}
			switch x := m.(type) {
			case *ast.GoStmt:
				for _, a := range x.Call.Args {
					walk(a)
				}
				return false // the spawned body blocks its own goroutine
			case *ast.SendStmt:
				blocking = true
				return false
			case *ast.UnaryExpr:
				if x.Op == token.ARROW {
					blocking = true
					return false
				}
			case *ast.RangeStmt:
				if isChanType(info.TypeOf(x.X)) {
					blocking = true
					return false
				}
			case *ast.SelectStmt:
				if selectBlocks(info, x) {
					blocking = true
					return false
				}
				// Non-blocking select: its comm ops never block, but the
				// case bodies run normally.
				for _, cl := range x.Body.List {
					for _, st := range cl.(*ast.CommClause).Body {
						walk(st)
					}
				}
				return false
			case *ast.CallExpr:
				if fn := calleeFunc(info, x); fn != nil && blockingStdlib(fn) {
					blocking = true
					return false
				}
			}
			return true
		})
	}
	walk(body)
	return blocking
}

// selectBlocks reports whether a select statement can block: no default
// clause.
func selectBlocks(info *types.Info, sel *ast.SelectStmt) bool {
	for _, cl := range sel.Body.List {
		if cl.(*ast.CommClause).Comm == nil {
			return false // default clause
		}
	}
	return true
}

// spinLoops returns the positions of unbounded loops in body that cannot
// block on any iteration: no direct blocking construct in the loop
// subtree and no call to a may-block function. Two loop shapes make
// their own progress and are exempt: a loop whose body assigns to a
// variable its condition reads (monotone drains — `for len(p) > 0 { p =
// p[n:] }`), and a lock-free CAS retry (`for { ...CompareAndSwap...
// break }` — a failed CAS means another writer progressed).
func spinLoops(info *types.Info, body ast.Node, blocks map[*types.Func]bool) []token.Pos {
	var out []token.Pos
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.GoStmt:
				return false
			case *ast.ForStmt:
				if x.Post == nil && !loopBlocks(info, x, blocks) &&
					!selfAdvancing(x) && !casRetry(info, x.Body) {
					out = append(out, x.For)
				}
				if x.Cond != nil {
					walk(x.Cond)
				}
				walk(x.Body)
				return false
			}
			return true
		})
	}
	walk(body)
	return out
}

// selfAdvancing reports whether the loop's body assigns to (or
// increments) an expression its condition reads — the loop owns its
// progress, so it is bounded work, not a wait.
func selfAdvancing(loop *ast.ForStmt) bool {
	if loop.Cond == nil {
		return false
	}
	read := make(map[string]bool)
	ast.Inspect(loop.Cond, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.Ident, *ast.SelectorExpr:
			read[types.ExprString(n.(ast.Expr))] = true
		}
		return true
	})
	advanced := false
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if advanced {
				return false
			}
			switch x := m.(type) {
			case *ast.FuncLit, *ast.GoStmt:
				return false
			case *ast.AssignStmt:
				for _, l := range x.Lhs {
					if read[types.ExprString(l)] {
						advanced = true
					}
				}
			case *ast.IncDecStmt:
				if read[types.ExprString(x.X)] {
					advanced = true
				}
			case *ast.UnaryExpr:
				// &x escaping into a call may mutate x (binary.Read-style
				// decoders); treat it as progress the analysis can't track.
				if x.Op == token.AND && read[types.ExprString(x.X)] {
					advanced = true
				}
			}
			return true
		})
	}
	walk(loop.Body)
	return advanced
}

// casRetry reports whether the loop body performs an atomic
// compare-and-swap — the canonical lock-free retry, where a failed swap
// proves another goroutine made progress.
func casRetry(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
			return true
		}
		if strings.HasPrefix(fn.Name(), "CompareAndSwap") {
			found = true
			return false
		}
		return true
	})
	return found
}

// loopBlocks reports whether one loop's iteration path (cond and body)
// contains a blocking construct or a call into a may-block function.
func loopBlocks(info *types.Info, loop *ast.ForStmt, blocks map[*types.Func]bool) bool {
	var scan []ast.Node
	if loop.Cond != nil {
		scan = append(scan, loop.Cond)
	}
	scan = append(scan, loop.Body)
	for _, n := range scan {
		if directlyBlocks(info, n) {
			return true
		}
		mayBlockCall := false
		ast.Inspect(n, func(m ast.Node) bool {
			if mayBlockCall {
				return false
			}
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			if _, ok := m.(*ast.GoStmt); ok {
				return false
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := calleeFunc(info, call); fn != nil && blocks[fn.Origin()] {
				mayBlockCall = true
				return false
			}
			return true
		})
		if mayBlockCall {
			return true
		}
	}
	return false
}
