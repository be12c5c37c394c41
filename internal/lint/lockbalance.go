package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// lockBalance checks that no mutex leaks out of a function: on every
// path to a return (or to falling off the end), each acquired lock has
// either been unlocked on that path or has a deferred unlock registered
// before the exit. It runs the shared lockFlow lattice on the dataflow
// engine, so branch forks and must-held joins make the check
// path-sensitive: an early return inside `if cond { mu.Unlock(); return }`
// is clean, an early return before the unlock is a leak.
//
// Deferred unlocks are tracked in statement order, which is exactly the
// flow-sensitivity the idiom needs: `mu.Lock(); defer mu.Unlock()`
// covers every later exit, while a return between the Lock and the defer
// is still (correctly) a leak.
type lockBalance struct{}

func (lockBalance) Name() string { return "lockbalance" }
func (lockBalance) Doc() string {
	return "every acquired mutex is unlocked or defer-unlocked on every path out of the function"
}

func (lockBalance) Run(p *Pass) {
	check := func(body *ast.BlockStmt) {
		deferred := make(map[string]bool)
		flow := lockFlow(p.Pkg.Info, exprLockKey, nil, nil)
		flow.deferStmt = func(d *ast.DeferStmt, _ lockset) {
			if recv, op, ok := mutexOp(p.Pkg.Info, d.Call); ok && (op == "Unlock" || op == "RUnlock") {
				deferred[types.ExprString(recv)] = true
			}
		}
		flow.exit = func(pos token.Pos, _ *ast.ReturnStmt, held lockset) {
			var leaked []string
			for key := range held {
				if !deferred[key] {
					leaked = append(leaked, key)
				}
			}
			sort.Strings(leaked)
			for _, key := range leaked {
				p.Reportf(pos, "lockbalance",
					"%s is still held at function exit (locked at %s) with no unlock or deferred unlock on this path",
					key, p.Fset.Position(held[key]))
			}
		}
		flow.walk(body, lockset{})
	}
	for _, f := range p.Pkg.Files {
		funcBodies(f, check)
	}
}
