package lint

import (
	"go/ast"
	"go/types"
)

// wallClock flags any production code whose call closure reaches raw
// wall-clock time — time.Now, time.Since, time.Sleep, time.After,
// time.NewTimer, time.NewTicker, time.Tick, time.Until — without going
// through one of the module's two sanctioned time seams:
//
//   - internal/retry owns behavioral time: retry.Clock (Now/Sleep/After)
//     and the backoff loops, so fault injection can observe, clamp, and
//     cancel every wait;
//   - internal/obs owns observational time: traces and histograms stamp
//     their own clocks internally.
//
// A raw time.Sleep in the function under review is the one-hop case; a
// production function calling a helper (possibly through an interface
// method implemented in another package) that sleeps or reads the wall
// clock is just as nondeterministic, and the taint walk over the call
// graph sees it. Every declared function is checked, and so is every
// func literal bound at package level (`var settle = func() {...}`),
// which has no declaration of its own in the graph. The finding carries
// the shortest witness chain from the function to the offending time
// call.
type wallClock struct {
	module string
}

func (wallClock) Name() string { return "wallclock" }
func (wallClock) Doc() string {
	return "no production call closure reaches raw time.Now/Since/Sleep/After/Ticker outside the retry.Clock and obs seams"
}

// wallFuncs are the time package functions that read or wait on the wall
// clock. Constructors of durations (time.Duration math) are pure and
// deliberately absent.
var wallFuncs = map[string]bool{
	"Now": true, "Since": true, "Sleep": true, "After": true,
	"NewTimer": true, "NewTicker": true, "Tick": true, "Until": true,
}

func (w wallClock) seam(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case w.module + "/internal/retry", w.module + "/internal/obs":
		return true
	}
	return false
}

func (w wallClock) isWallCall(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "time" &&
		signature(fn).Recv() == nil && wallFuncs[fn.Name()]
}

func (w wallClock) Run(p *Pass) {
	if p.Pkg.Path == w.module+"/internal/retry" || p.Pkg.Path == w.module+"/internal/obs" {
		return // the seams themselves own raw wall time
	}
	report := func(from string, steps []PathStep) {
		last := steps[len(steps)-1]
		p.Reportf(steps[0].Pos, "wallclock",
			"call closure reaches %s outside the retry.Clock/obs seams: %s (time call at %s); thread a retry.Clock (retry.Wall at the edge) or move the timestamp into an obs instrument",
			p.Graph.displayName(last.Fn),
			p.Graph.renderPath(from, steps),
			p.Fset.Position(last.Pos))
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn, ok := p.Pkg.Info.Defs[d.Name].(*types.Func)
				if !ok || d.Body == nil {
					continue
				}
				if steps := p.Graph.FindPath(fn, w.isWallCall, w.seam); steps != nil {
					report(p.Graph.displayName(fn), steps)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, v := range vs.Values {
						name := vs.Names[min(i, len(vs.Names)-1)]
						ast.Inspect(v, func(n ast.Node) bool {
							lit, ok := n.(*ast.FuncLit)
							if !ok {
								return true
							}
							edges := p.Graph.callEdges(p.Pkg.Info, lit.Body)
							if steps := p.Graph.findPath(edges, make(map[*types.Func]bool), w.isWallCall, w.seam); steps != nil {
								report(p.Graph.trimModule(p.Pkg.Path+"."+name.Name), steps)
							}
							return false // nested literals are part of this one's closure
						})
					}
				}
			}
		}
	}
}
