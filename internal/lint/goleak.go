package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// goLeak proves every production `go` statement can terminate. A spawned
// goroutine leaks when it reaches an infinite loop (`for {}`) carrying no
// termination witness: no receive from a signal channel (chan struct{} —
// a stop/done channel or ctx.Done()), no return, no break out of the
// loop, no goto, and no panic/os.Exit. Conditional loops (`for cond {}`)
// and ranges count as bounded: the condition is the author's bound, and
// range over a channel ends when the sender closes it. Note the witness
// must be a *signal* read — `<-clock.After(d)` carries time.Time and does
// not qualify, because a tick wakes the loop up but never shuts it down.
//
// The check is interprocedural: from each spawn site it walks the call
// closure (FuncLit bodies in place, declared callees through the module
// call graph) and reports the first reachable unwitnessed loop with the
// spawn→loop chain. A function whose doc comment carries
// `//kslint:finite <reason>` asserts termination and is not entered —
// that is the annotation for loops bounded by invariants the analysis
// cannot see (deadline budgets, monotone queue drains).
type goLeak struct {
	module string
	fset   *token.FileSet
	graph  *CallGraph
}

func newGoLeak(module string) *goLeak { return &goLeak{module: module} }

func (*goLeak) Name() string { return "goleak" }
func (*goLeak) Doc() string {
	return "every production go statement has a termination witness: a signal-channel receive, an exit path, a bound, or a //kslint:finite reason"
}

func (g *goLeak) Run(p *Pass) {
	g.fset = p.Fset
	g.graph = p.Graph
}

// hazard is one unwitnessed infinite loop inside a function body.
type leakHazard struct {
	pos token.Pos
}

func (g *goLeak) Finalize(report func(Diagnostic)) {
	if g.graph == nil {
		return
	}
	// Per-function summaries: the unwitnessed loops of each declared body.
	hazards := make(map[*types.Func][]leakHazard)
	finite := make(map[*types.Func]bool)
	for _, fn := range g.graph.Funcs() {
		node := g.graph.Node(fn)
		if node == nil || node.Decl == nil || node.Decl.Body == nil {
			continue
		}
		if declMarked(node.Decl, "kslint:finite") {
			finite[fn] = true
			continue
		}
		hazards[fn] = unwitnessedLoops(node.Pkg.Info, node.Decl.Body)
	}

	var found []Diagnostic
	for _, fn := range g.graph.Funcs() {
		node := g.graph.Node(fn)
		if node == nil || node.Decl == nil || node.Decl.Body == nil {
			continue
		}
		info := node.Pkg.Info
		enclosingFinite := declMarked(node.Decl, "kslint:finite")
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if enclosingFinite {
				return true
			}
			if d := g.checkSpawn(info, gs, hazards, finite); d != nil {
				found = append(found, *d)
			}
			return true
		})
	}
	sortDiags(found)
	for _, d := range found {
		report(d)
	}
}

// checkSpawn walks the call closure of one go statement and returns a
// finding for the first reachable unwitnessed loop, if any.
func (g *goLeak) checkSpawn(info *types.Info, gs *ast.GoStmt, hazards map[*types.Func][]leakHazard, finite map[*types.Func]bool) *Diagnostic {
	lit, fn := spawnTargets(info, g.graph, gs)
	var seeds []*types.Func
	switch {
	case lit != nil:
		// The spawned closure itself, checked in place.
		if hz := unwitnessedLoops(info, lit.Body); len(hz) > 0 {
			return g.finding(gs, hz[0].pos, "the spawned func literal", "")
		}
		seeds = litCallees(info, g.graph, lit)
	case fn != nil:
		seeds = []*types.Func{fn}
	default:
		return nil // func value or external callee: unresolvable
	}

	// The first unwitnessed loop in breadth-first order, with its chain.
	closure := g.graph.reach(seeds, func(fn *types.Func) bool { return finite[fn] })
	for _, fn := range closure.order {
		if hz := hazards[fn]; len(hz) > 0 {
			return g.finding(gs, hz[0].pos, g.graph.displayName(fn), closure.chain(fn))
		}
	}
	return nil
}

func (g *goLeak) finding(gs *ast.GoStmt, loopPos token.Pos, where, chain string) *Diagnostic {
	lp := g.fset.Position(loopPos)
	path := "spawn"
	if chain != "" {
		path += " → " + chain
	}
	msg := "goroutine has no termination witness: " + where +
		" loops forever at " + lp.Filename + ":" + strconv.Itoa(lp.Line) + " (" + path +
		") with no signal-channel receive, return, break, or bound; " +
		"gate the loop on a close signal or annotate its function //kslint:finite <reason>"
	return &Diagnostic{Pos: g.fset.Position(gs.Pos()), Rule: "goleak", Message: msg}
}

// unwitnessedLoops finds `for {}` loops in body whose subtree (func
// literals excluded — their statements run on other goroutines or other
// frames) contains no termination witness.
func unwitnessedLoops(info *types.Info, body ast.Node) []leakHazard {
	var out []leakHazard
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ForStmt:
				if x.Cond == nil && !loopHasWitness(info, x.Body) {
					out = append(out, leakHazard{pos: x.For})
				}
				// Nested loops are scanned on their own.
				walk(x.Body)
				return false
			}
			return true
		})
	}
	walk(body)
	return out
}

// loopHasWitness scans one infinite loop's body for a termination
// witness: a return, a break that exits *this* loop (bare break only at
// the loop's own nesting level; any labeled break), a goto, a panic or
// process exit, or a receive from / range over a signal channel.
func loopHasWitness(info *types.Info, body *ast.BlockStmt) bool {
	witness := false
	// depth counts enclosing break targets (for/range/select/switch)
	// between a statement and this loop, so `break` inside a nested
	// select is not mistaken for a loop exit.
	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		ast.Inspect(n, func(m ast.Node) bool {
			if witness {
				return false
			}
			switch x := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				witness = true
				return false
			case *ast.BranchStmt:
				switch x.Tok {
				case token.BREAK:
					if depth == 0 || x.Label != nil {
						witness = true
					}
				case token.GOTO:
					witness = true
				}
				return false
			case *ast.ForStmt, *ast.RangeStmt, *ast.SelectStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt:
				if r, ok := x.(*ast.RangeStmt); ok && isSignalChan(info.TypeOf(r.X)) {
					witness = true // range over a stop channel ends at close
					return false
				}
				for _, child := range children(x) {
					walk(child, depth+1)
				}
				return false
			case *ast.UnaryExpr:
				if x.Op == token.ARROW && isSignalChan(info.TypeOf(x.X)) {
					witness = true
					return false
				}
			case *ast.CallExpr:
				if isExitCall(info, x) {
					witness = true
					return false
				}
			}
			return true
		})
	}
	walk(body, 0)
	return witness
}

// children returns the sub-nodes of a break-target statement that should
// be walked one nesting level deeper.
func children(n ast.Node) []ast.Node {
	var out []ast.Node
	switch x := n.(type) {
	case *ast.ForStmt:
		if x.Init != nil {
			out = append(out, x.Init)
		}
		if x.Cond != nil {
			out = append(out, x.Cond)
		}
		if x.Post != nil {
			out = append(out, x.Post)
		}
		out = append(out, x.Body)
	case *ast.RangeStmt:
		out = append(out, x.X, x.Body)
	case *ast.SelectStmt:
		out = append(out, x.Body)
	case *ast.SwitchStmt:
		if x.Init != nil {
			out = append(out, x.Init)
		}
		if x.Tag != nil {
			out = append(out, x.Tag)
		}
		out = append(out, x.Body)
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			out = append(out, x.Init)
		}
		out = append(out, x.Assign, x.Body)
	}
	return out
}

// isExitCall reports calls that abandon the goroutine or process: panic,
// os.Exit, runtime.Goexit, log.Fatal*.
func isExitCall(info *types.Info, call *ast.CallExpr) bool {
	if fun, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, builtin := info.Uses[fun].(*types.Builtin); builtin && fun.Name == "panic" {
			return true
		}
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	return isPkgFunc(fn, "os", "Exit") || isPkgFunc(fn, "runtime", "Goexit") ||
		isPkgFunc(fn, "log", "Fatal") || isPkgFunc(fn, "log", "Fatalf") || isPkgFunc(fn, "log", "Fatalln")
}
