package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// zeroCopy is a taint analysis over the zero-copy fetch path. The
// designated sources hand out views into long-lived shared buffers —
// protocol.DecodeBatchShared (record keys/values/headers alias the
// decoded frame) and the WAL decoded-batch cache (every reader of an
// offset gets the same *RecordBatch) — and DESIGN §10's ownership
// contract says those views are borrowed: valid only while the batch
// stays reachable, and immutable always. The rule flags the two ways the
// contract breaks:
//
//   - retention: a tainted value stored into a package-level variable, a
//     receiver field, a channel, or a spawned goroutine outlives the
//     borrow and pins (or races with) the cache's backing buffer;
//   - mutation: an element write or copy into tainted bytes scribbles on
//     memory shared with every other reader of the same offset.
//
// Record.Clone is the sanctioned escape hatch (a deep copy owns its
// bytes) and strips taint, as do string conversions (which copy).
//
// Two summaries propagate over the call graph so taint is seen through
// helpers: "returns shared" (a function whose result aliases a source)
// and "retains parameter i" (a function that stores its argument into a
// long-lived sink — e.g. batchCache.put). Findings carry the provenance
// chain back to the source, wallclock-style. Taint does not cross plain
// function values, channels, or the transport boundary; stores into
// local structs that later escape are likewise not tracked.
type zeroCopy struct {
	module string
	graph  *CallGraph
	sum    *zcSummaries
}

func newZeroCopy(module string) *zeroCopy { return &zeroCopy{module: module} }

func (*zeroCopy) Name() string { return "zerocopy" }
func (*zeroCopy) Doc() string {
	return "no retention or mutation of zero-copy batch views (shared decode results, WAL cache entries) outside the DESIGN §10 ownership contract"
}

// zcProv is the provenance a tainted value carries: a human-readable
// chain fragment back to the source, the source position, and — during
// the retains-summary evaluation — the parameter index the taint was
// seeded from (-1 otherwise).
type zcProv struct {
	desc  string
	pos   token.Pos
	param int
}

type zcSummaries struct {
	returnsShared map[*types.Func]zcProv
	retains       map[*types.Func]map[int]zcProv
}

// sourceCall recognizes the designated zero-copy sources.
func (z *zeroCopy) sourceCall(fn *types.Func) (string, bool) {
	switch {
	case isPkgFunc(fn, z.module+"/internal/protocol", "DecodeBatchShared"):
		return "protocol.DecodeBatchShared result", true
	case isMethod(fn, z.module+"/internal/wal", "batchCache", "get"):
		return "WAL decoded-batch cache entry", true
	}
	return "", false
}

// zcAliasType reports whether a value of type t can alias shared bytes.
// Basic types (including string: conversions copy) and function values
// cannot; error is excluded so err results don't ride the taint.
func zcAliasType(t types.Type) bool {
	if t == nil {
		return false
	}
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Basic, *types.Signature:
		return false
	}
	return true
}

// summaries computes (and memoizes per graph) the returns-shared and
// retains-parameter fixpoint over every declared function.
func (z *zeroCopy) summaries(g *CallGraph) *zcSummaries {
	if z.sum != nil && z.graph == g {
		return z.sum
	}
	z.graph = g
	s := &zcSummaries{
		returnsShared: make(map[*types.Func]zcProv),
		retains:       make(map[*types.Func]map[int]zcProv),
	}
	g.fixpoint(func(fn *types.Func, node *CGNode) bool {
		if node.Decl == nil || node.Decl.Body == nil {
			return false
		}
		changed := false
		// Returns-shared: source taint only.
		if _, have := s.returnsShared[fn]; !have {
			e := z.newEval(node, s)
			e.propagate(node.Decl.Body)
			if pv, ok := e.returnsTainted(node.Decl.Body); ok {
				s.returnsShared[fn] = pv
				changed = true
			}
		}
		// Retains: parameter taint flowing into long-lived sinks.
		pe := z.newEval(node, s)
		if !pe.seedParams(node) {
			return changed
		}
		pe.propagate(node.Decl.Body)
		pe.scanSinks(node.Decl.Body, func(pv zcProv, target string, pos token.Pos) {
			if pv.param < 0 {
				return // source-derived: reported at the package pass
			}
			if s.retains[fn] == nil {
				s.retains[fn] = make(map[int]zcProv)
			}
			if _, have := s.retains[fn][pv.param]; !have {
				s.retains[fn][pv.param] = zcProv{desc: target, pos: pos, param: -1}
				changed = true
			}
		})
		return changed
	})
	z.sum = s
	return s
}

func (z *zeroCopy) Run(p *Pass) {
	s := z.summaries(p.Graph)
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
			node := p.Graph.Node(fn)
			if node == nil {
				continue
			}
			e := z.newEval(node, s)
			e.propagate(fd.Body)
			if len(e.tainted) == 0 {
				continue
			}
			e.scanSinks(fd.Body, func(pv zcProv, target string, pos token.Pos) {
				p.Reportf(pos, "zerocopy",
					"zero-copy batch bytes (%s) %s: WAL-backed views are borrowed — immutable, and valid only while the batch is reachable; deep-copy (Record.Clone) first (DESIGN §10)",
					pv.desc, target)
			})
		}
	}
}

// zcEval evaluates taint for one function body.
type zcEval struct {
	z       *zeroCopy
	info    *types.Info
	sum     *zcSummaries
	tainted map[types.Object]zcProv
	recv    types.Object
}

func (z *zeroCopy) newEval(node *CGNode, s *zcSummaries) *zcEval {
	e := &zcEval{z: z, info: node.Pkg.Info, sum: s, tainted: make(map[types.Object]zcProv)}
	if r := node.Decl.Recv; r != nil && len(r.List) == 1 && len(r.List[0].Names) == 1 {
		e.recv = node.Pkg.Info.Defs[r.List[0].Names[0]]
	}
	return e
}

// seedParams taints every alias-capable parameter; reports whether any
// seed was planted.
func (e *zcEval) seedParams(node *CGNode) bool {
	sig := signature(node.Fn)
	seeded := false
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if !zcAliasType(p.Type()) {
			continue
		}
		e.tainted[p] = zcProv{desc: "parameter " + p.Name(), pos: p.Pos(), param: i}
		seeded = true
	}
	return seeded
}

// taintOf evaluates whether an expression yields a tainted value.
func (e *zcEval) taintOf(x ast.Expr) (zcProv, bool) {
	switch v := x.(type) {
	case *ast.Ident:
		obj := e.info.Uses[v]
		if obj == nil {
			obj = e.info.Defs[v]
		}
		if pv, ok := e.tainted[obj]; ok {
			return pv, true
		}
	case *ast.ParenExpr:
		return e.taintOf(v.X)
	case *ast.StarExpr:
		return e.taintOf(v.X)
	case *ast.TypeAssertExpr:
		return e.taintOf(v.X)
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			return e.taintOf(v.X)
		}
	case *ast.SelectorExpr:
		if !zcAliasType(e.info.TypeOf(x)) {
			return zcProv{}, false
		}
		return e.taintOf(v.X)
	case *ast.IndexExpr:
		if !zcAliasType(e.info.TypeOf(x)) {
			return zcProv{}, false
		}
		return e.taintOf(v.X)
	case *ast.SliceExpr:
		return e.taintOf(v.X)
	case *ast.CompositeLit:
		for _, el := range v.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if pv, ok := e.taintOf(el); ok {
				return pv, true
			}
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok {
			if _, builtin := e.info.Uses[id].(*types.Builtin); builtin {
				if id.Name == "append" {
					for _, a := range v.Args {
						if pv, ok := e.taintOf(a); ok {
							return pv, true
						}
					}
				}
				return zcProv{}, false
			}
		}
		fn := calleeFunc(e.info, v)
		if fn == nil {
			return zcProv{}, false // conversions copy or re-type; func values untracked
		}
		fn = fn.Origin()
		if fn.Name() == "Clone" {
			return zcProv{}, false // deep copy: the sanctioned escape hatch
		}
		if desc, ok := e.z.sourceCall(fn); ok {
			return zcProv{desc: desc, pos: v.Pos(), param: -1}, true
		}
		if pv, ok := e.sum.returnsShared[fn]; ok {
			return zcProv{desc: e.z.graph.displayName(fn) + " → " + pv.desc, pos: v.Pos(), param: -1}, true
		}
	}
	return zcProv{}, false
}

// taintIdent binds taint to an assignment target identifier (type-gated).
func (e *zcEval) taintIdent(x ast.Expr, pv zcProv) bool {
	id, ok := ast.Unparen(x).(*ast.Ident)
	if !ok || id.Name == "_" {
		return false
	}
	obj := e.info.Defs[id]
	if obj == nil {
		obj = e.info.Uses[id]
	}
	if obj == nil || !zcAliasType(obj.Type()) {
		return false
	}
	if _, have := e.tainted[obj]; have {
		return false
	}
	e.tainted[obj] = pv
	return true
}

// propagate runs the flow-insensitive assignment fixpoint over body
// (closures included: they evaluate in the same frame).
func (e *zcEval) propagate(body *ast.BlockStmt) {
	for pass, changed := 0, true; changed && pass < 8; pass++ {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				if len(x.Lhs) == len(x.Rhs) {
					for i := range x.Rhs {
						if pv, ok := e.taintOf(x.Rhs[i]); ok && e.taintIdent(x.Lhs[i], pv) {
							changed = true
						}
					}
				} else if len(x.Rhs) == 1 {
					if pv, ok := e.taintOf(x.Rhs[0]); ok {
						for _, l := range x.Lhs {
							if e.taintIdent(l, pv) {
								changed = true
							}
						}
					}
				}
			case *ast.ValueSpec:
				if len(x.Values) == 0 {
					return true
				}
				for i, name := range x.Names {
					var rhs ast.Expr
					if len(x.Values) == len(x.Names) {
						rhs = x.Values[i]
					} else {
						rhs = x.Values[0]
					}
					if pv, ok := e.taintOf(rhs); ok && e.taintIdent(name, pv) {
						changed = true
					}
				}
			case *ast.RangeStmt:
				if pv, ok := e.taintOf(x.X); ok {
					if x.Value != nil && e.taintIdent(x.Value, pv) {
						changed = true
					}
					if x.Key != nil && e.taintIdent(x.Key, pv) {
						changed = true
					}
				}
			}
			return true
		})
	}
}

// returnsTainted reports whether body (FuncLits excluded) returns a
// tainted result.
func (e *zcEval) returnsTainted(body *ast.BlockStmt) (zcProv, bool) {
	var out zcProv
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if found {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, r := range ret.Results {
			if pv, ok := e.taintOf(r); ok {
				out, found = pv, true
				return false
			}
		}
		return true
	})
	return out, found
}

// rootObj resolves an lvalue chain (s.f[i], *p, g.m[k]) to its base
// identifier's object.
func (e *zcEval) rootObj(x ast.Expr) types.Object {
	for {
		switch v := x.(type) {
		case *ast.ParenExpr:
			x = v.X
		case *ast.SelectorExpr:
			x = v.X
		case *ast.IndexExpr:
			x = v.X
		case *ast.StarExpr:
			x = v.X
		case *ast.SliceExpr:
			x = v.X
		case *ast.Ident:
			if o := e.info.Uses[v]; o != nil {
				return o
			}
			return e.info.Defs[v]
		default:
			return nil
		}
	}
}

func zcPkgLevel(o types.Object) bool {
	v, ok := o.(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// retentionTarget classifies an assignment target as a long-lived sink.
func (e *zcEval) retentionTarget(lhs ast.Expr) (string, bool) {
	root := e.rootObj(lhs)
	if root == nil {
		return "", false
	}
	switch lhs.(type) {
	case *ast.Ident:
		if zcPkgLevel(root) {
			return "retained in package-level var " + root.Name(), true
		}
	case *ast.SelectorExpr, *ast.IndexExpr:
		if zcPkgLevel(root) {
			return "retained via package-level var " + root.Name(), true
		}
		if e.recv != nil && root == e.recv {
			return "retained in a field of receiver " + root.Name(), true
		}
	}
	return "", false
}

// mutationBase reports whether lhs writes through tainted slice/array
// bytes (v[i] = x or *p = x with a tainted base).
func (e *zcEval) mutationBase(lhs ast.Expr) (zcProv, bool) {
	switch v := lhs.(type) {
	case *ast.IndexExpr:
		switch e.info.TypeOf(v.X).Underlying().(type) {
		case *types.Slice, *types.Array:
			return e.taintOf(v.X)
		}
	case *ast.StarExpr:
		return e.taintOf(v.X)
	}
	return zcProv{}, false
}

// scanSinks reports every contract violation in body to hit.
func (e *zcEval) scanSinks(body *ast.BlockStmt, hit func(pv zcProv, target string, pos token.Pos)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					if pv, ok := e.mutationBase(x.Lhs[i]); ok {
						hit(pv, "mutated through an aliasing view", x.Lhs[i].Pos())
						continue
					}
					if pv, ok := e.taintOf(x.Rhs[i]); ok {
						if target, sink := e.retentionTarget(x.Lhs[i]); sink {
							hit(pv, target, x.Lhs[i].Pos())
						}
					}
				}
			}
		case *ast.SendStmt:
			if pv, ok := e.taintOf(x.Value); ok {
				hit(pv, "sent to a channel (escapes the borrow)", x.Pos())
			}
		case *ast.GoStmt:
			for _, a := range x.Call.Args {
				if pv, ok := e.taintOf(a); ok {
					hit(pv, "handed to a spawned goroutine", x.Pos())
				}
			}
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				e.goCapture(lit, x.Pos(), hit)
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if _, builtin := e.info.Uses[id].(*types.Builtin); builtin {
					if id.Name == "copy" && len(x.Args) == 2 {
						if pv, ok := e.taintOf(x.Args[0]); ok {
							hit(pv, "mutated through an aliasing view (copy target)", x.Pos())
						}
					}
					return true
				}
			}
			fn := calleeFunc(e.info, x)
			if fn == nil {
				return true
			}
			fn = fn.Origin()
			m := e.sum.retains[fn]
			if len(m) == 0 {
				return true
			}
			idxs := make([]int, 0, len(m))
			for i := range m {
				idxs = append(idxs, i)
			}
			sort.Ints(idxs)
			for _, i := range idxs {
				if i >= len(x.Args) {
					continue
				}
				if pv, ok := e.taintOf(x.Args[i]); ok {
					hit(pv, "passed to "+e.z.graph.displayName(fn)+", which leaves it "+m[i].desc, x.Args[i].Pos())
				}
			}
		}
		return true
	})
}

// goCapture reports tainted identifiers a spawned closure captures from
// the enclosing frame (locals declared inside the closure are its own).
func (e *zcEval) goCapture(lit *ast.FuncLit, pos token.Pos, hit func(zcProv, string, token.Pos)) {
	reported := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := e.info.Uses[id]
		if obj == nil {
			return true
		}
		pv, tainted := e.tainted[obj]
		if !tainted {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return true // declared inside the closure
		}
		hit(pv, "captured by a spawned goroutine", pos)
		reported = true
		return false
	})
}
