package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// lockHeld is an intra-procedural check that no sync.Mutex/RWMutex is
// held across a transport RPC ((*Network).Send/SendTraced) or a blocking
// channel send. The transport invokes the destination handler
// synchronously in the caller's goroutine, so an RPC made under a lock
// can re-enter the same lock through the handler (deadlock) and at
// minimum serializes every contender behind an injected network delay —
// the hazard class the retry chaos tests hunt dynamically, checked here
// statically.
//
// The held set comes from lockFlow, the lattice the lock rules
// (lockheld-rpc, lockorder, lockbalance) share on the dataflow engine
// (flow.go): the engine owns branching, joins, loops and defers; the
// rules own what to do at acquisitions, expressions, sends, and exits.
type lockHeld struct{ module string }

func (lockHeld) Name() string { return "lockheld-rpc" }
func (lockHeld) Doc() string {
	return "no mutex held across a transport Send/SendTraced or a blocking channel send"
}

func (l lockHeld) Run(p *Pass) {
	transport := l.module + "/internal/transport"
	reportHeld := func(pos token.Pos, held lockset, what string) {
		for key, at := range held {
			p.Reportf(pos, "lockheld-rpc",
				"%s while holding %s (locked at %s): release the lock first — the handler runs synchronously and may re-enter it",
				what, key, p.Fset.Position(at))
		}
	}
	flow := lockFlow(p.Pkg.Info, exprLockKey, nil, func(n ast.Node, held lockset) {
		inspectFrame(n, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				fn := calleeFunc(p.Pkg.Info, call)
				if isMethod(fn, transport, "Network", "Send") || isMethod(fn, transport, "Network", "SendTraced") {
					reportHeld(call.Pos(), held, "transport RPC")
				}
			}
			return true
		})
	})
	stmt := flow.stmt
	flow.stmt = func(s ast.Stmt, held lockset, comm bool) {
		if _, ok := s.(*ast.SendStmt); ok && !comm && len(held) > 0 {
			reportHeld(s.Pos(), held, "channel send")
		}
		stmt(s, held, comm)
	}
	for _, f := range p.Pkg.Files {
		funcBodies(f, func(body *ast.BlockStmt) { flow.walk(body, lockset{}) })
	}
}

// lockset maps a lock's identity (per the rule's key function) to where
// it was acquired.
type lockset map[string]token.Pos

// exprLockKey names a lock by its receiver's spelling (s.mu).
func exprLockKey(recv ast.Expr) (string, bool) { return types.ExprString(recv), true }

// lockFlow is the held-set lattice the lock rules share. Lock/RLock on a
// lock key can name adds it, Unlock/RUnlock drops it, and a join keeps
// only the locks every path holds (must-held), so a lock counts as held
// after a branch only when no path released it. A deferred unlock is not
// a release: the lock stays held for the rest of the body, matching its
// runtime meaning. A send that is a select communication is not
// evaluated — a select is cancellable.
//
// key names a lock from its receiver expression; ok=false ignores the
// operation (e.g. a function-local mutex when only type-level classes
// matter). acquire (optional) sees each acquisition with the set held
// just before it; scan (optional) gets every other expression evaluated
// while at least one lock is held.
func lockFlow(info *types.Info, key func(recv ast.Expr) (string, bool),
	acquire func(key string, pos token.Pos, held lockset), scan func(n ast.Node, held lockset)) *flowLattice[lockset] {
	eval := func(n ast.Node, held lockset) {
		if scan != nil && len(held) > 0 {
			scan(n, held)
		}
	}
	return &flowLattice[lockset]{
		clone: maps.Clone[lockset],
		join:  func(a, b lockset) lockset { return mustJoin(a, b, nil) },
		stmt: func(s ast.Stmt, held lockset, comm bool) {
			if es, ok := s.(*ast.ExprStmt); ok {
				if recv, op, ok := mutexOp(info, es.X); ok {
					if k, ok := key(recv); ok {
						if op == "Lock" || op == "RLock" {
							if acquire != nil {
								acquire(k, es.Pos(), held)
							}
							held[k] = es.Pos()
						} else {
							delete(held, k)
						}
						return
					}
				}
			}
			if _, send := s.(*ast.SendStmt); send && comm {
				return
			}
			simpleExprs(s, func(n ast.Node) { eval(n, held) })
		},
		expr: func(e ast.Expr, held lockset) { eval(e, held) },
		deferStmt: func(d *ast.DeferStmt, held lockset) {
			if _, _, ok := mutexOp(info, d.Call); ok {
				return
			}
			for _, a := range d.Call.Args {
				eval(a, held)
			}
		},
	}
}

// mutexOp recognizes a sync.Mutex/RWMutex Lock/RLock/Unlock/RUnlock call
// and returns the receiver expression and operation name. Shared by the
// lock rules through lockFlow (lockorder keys the receiver by type rather
// than by spelling).
func mutexOp(info *types.Info, e ast.Expr) (recv ast.Expr, op string, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return nil, "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, "", false
	}
	if r := signature(fn).Recv(); r == nil || !isMutexType(r.Type()) {
		return nil, "", false
	}
	return sel.X, fn.Name(), true
}

func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	return named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex"
}
