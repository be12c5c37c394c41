package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// hotAlloc enforces allocation discipline on the hot path. The hot path
// is policy, not heuristics: a function carrying `//kslint:hotpath` in
// its doc comment is a root (produce append, fetch, batch encode/decode,
// obs counter increments), and everything statically reachable from a
// root through the call graph inherits the discipline. A function
// carrying `//kslint:coldpath <reason>` is a seam: reachability stops
// there, and calls into it are exempt — that is how a hot function
// delegates its error-formatting or stall diagnostics without dragging
// fmt into the steady state.
//
// Inside the hot region, four allocation patterns are findings:
//
//  1. calls into fmt.* or log.* — formatting boxes every operand and
//     serializes on the output path;
//  2. grow-append in a loop to a slice the function created without
//     capacity — each growth is an allocation plus a copy;
//  3. boxing a concrete non-pointer-shaped value into an interface
//     parameter — one heap allocation per call;
//  4. per-iteration make/new or string↔[]byte conversions in a loop —
//     an allocation per record.
//
// Findings carry the shortest hot chain from a root, wallclock-style,
// so the reader sees why the function is considered hot. Append targets
// that are parameters are exempt (the caller owns preallocation, as in
// protocol.AppendBatch's dst), as are append targets behind selectors
// (field buffers are typically amortized across calls).
type hotAlloc struct {
	module string
	fset   *token.FileSet
	graph  *CallGraph
}

func newHotAlloc(module string) *hotAlloc { return &hotAlloc{module: module} }

func (*hotAlloc) Name() string { return "hotalloc" }
func (*hotAlloc) Doc() string {
	return "no fmt/log calls, unpreallocated grow-append, interface boxing, or per-record allocation reachable from //kslint:hotpath roots"
}

func (h *hotAlloc) Run(p *Pass) {
	h.fset = p.Fset
	h.graph = p.Graph
}

func declMarked(decl *ast.FuncDecl, marker string) bool {
	if decl == nil || decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		text = strings.TrimSpace(text)
		if text == marker || strings.HasPrefix(text, marker+" ") {
			return true
		}
	}
	return false
}

// hotRegion returns the hot path hotalloc and spinloop police — every
// function reachable from a //kslint:hotpath root without entering a
// //kslint:coldpath seam — and the set of seams. hot is nil when the
// module marks no root.
func hotRegion(g *CallGraph) (hot *reachSet, cold map[*types.Func]bool) {
	var roots []*types.Func
	cold = make(map[*types.Func]bool)
	for _, fn := range g.Funcs() { // FuncID order
		node := g.Node(fn)
		if declMarked(node.Decl, "kslint:hotpath") {
			roots = append(roots, fn)
		}
		if declMarked(node.Decl, "kslint:coldpath") {
			cold[fn] = true
		}
	}
	if len(roots) == 0 {
		return nil, cold
	}
	return g.reach(roots, func(fn *types.Func) bool { return cold[fn] }), cold
}

func (h *hotAlloc) Finalize(report func(Diagnostic)) {
	if h.graph == nil {
		return
	}
	hot, cold := hotRegion(h.graph)
	if hot == nil {
		return
	}
	chain := func(fn *types.Func) string {
		return "hot via " + hot.chain(fn)
	}

	var found []Diagnostic
	seen := make(map[string]bool)
	hit := func(pos token.Pos, format string) {
		p := h.fset.Position(pos)
		key := p.String() + "|" + format
		if seen[key] {
			return
		}
		seen[key] = true
		found = append(found, Diagnostic{Pos: p, Rule: "hotalloc", Message: format})
	}

	for _, fn := range h.graph.Funcs() {
		if !hot.in[fn] {
			continue
		}
		node := h.graph.Node(fn)
		h.checkFmtEdges(node, cold, chain, hit)
		h.checkBody(node, cold, chain, hit)
	}

	sort.Slice(found, func(i, j int) bool {
		a, b := found[i], found[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Pos.Column < b.Pos.Column
	})
	for _, d := range found {
		report(d)
	}
}

// checkFmtEdges flags calls into fmt and log from a hot function.
func (h *hotAlloc) checkFmtEdges(node *CGNode, cold map[*types.Func]bool, chain func(*types.Func) string, hit func(token.Pos, string)) {
	for _, e := range node.Edges {
		pkg := e.Callee.Pkg()
		if pkg == nil || cold[e.Callee.Origin()] {
			continue
		}
		if pkg.Path() == "fmt" || pkg.Path() == "log" {
			hit(e.Pos, "hot path calls "+pkg.Path()+"."+e.Callee.Name()+
				" ("+chain(node.Fn)+"): formatting boxes every operand and allocates; move it behind a //kslint:coldpath helper")
		}
	}
}

// preallocated collects local slice objects initialized with a sized
// make: make(T, n, cap) always, make(T, n) when n is a non-zero literal.
func preallocated(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	record := func(lhs ast.Expr, rhs ast.Expr) {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			return
		}
		fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || fun.Name != "make" {
			return
		}
		if _, builtin := info.Uses[fun].(*types.Builtin); !builtin {
			return
		}
		sized := len(call.Args) >= 3
		if len(call.Args) == 2 {
			if lit, ok := ast.Unparen(call.Args[1]).(*ast.BasicLit); !ok || lit.Value != "0" {
				sized = true
			}
		}
		if !sized {
			return
		}
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				out[obj] = true
			} else if obj := info.Uses[id]; obj != nil {
				out[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					record(x.Lhs[i], x.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(x.Values) == len(x.Names) {
				for i := range x.Names {
					record(x.Names[i], x.Values[i])
				}
			}
		}
		return true
	})
	return out
}

// checkBody flags in-loop grow-append, interface boxing, and in-loop
// make/new/string-conversion allocations inside one hot function.
func (h *hotAlloc) checkBody(node *CGNode, cold map[*types.Func]bool, chain func(*types.Func) string, hit func(token.Pos, string)) {
	body := node.Decl.Body
	if body == nil {
		return
	}
	info := node.Pkg.Info
	prealloc := preallocated(info, body)
	where := chain(node.Fn)

	var walk func(n ast.Node, loopDepth int)
	walk = func(n ast.Node, loopDepth int) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.ForStmt:
				if x.Init != nil {
					walk(x.Init, loopDepth)
				}
				walk(x.Body, loopDepth+1)
				return false
			case *ast.RangeStmt:
				walk(x.Body, loopDepth+1)
				return false
			case *ast.AssignStmt:
				if loopDepth > 0 {
					h.checkGrowAppend(info, x, prealloc, node, where, hit)
				}
			case *ast.CallExpr:
				h.checkCall(info, x, cold, loopDepth, where, hit)
			}
			return true
		})
	}
	walk(body, 0)
}

// checkGrowAppend flags x = append(x, ...) in a loop when x is a local
// the function created without capacity. Parameters (caller preallocates)
// and selector targets (amortized field buffers) are exempt.
func (h *hotAlloc) checkGrowAppend(info *types.Info, asn *ast.AssignStmt, prealloc map[types.Object]bool, node *CGNode, where string, hit func(token.Pos, string)) {
	if len(asn.Lhs) != 1 || len(asn.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(asn.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fun.Name != "append" {
		return
	}
	if _, builtin := info.Uses[fun].(*types.Builtin); !builtin {
		return
	}
	lhs, ok := ast.Unparen(asn.Lhs[0]).(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return
	}
	arg0, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok || arg0.Name != lhs.Name {
		return
	}
	obj := info.Uses[lhs]
	if obj == nil {
		obj = info.Defs[lhs]
	}
	if obj == nil || prealloc[obj] {
		return
	}
	// Locals only: an object declared inside the body. Parameters and
	// named results sit in the signature, outer captures elsewhere.
	if obj.Pos() < node.Decl.Body.Pos() || obj.Pos() > node.Decl.Body.End() {
		return
	}
	hit(asn.Pos(), "grow-append to "+lhs.Name+" in a loop ("+where+
		"): every growth reallocates and copies; preallocate with make(T, 0, n)")
}

func pointerShaped(t types.Type) bool {
	if t == nil {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer || u.Info()&types.IsUntyped != 0
	}
	return false
}

// checkCall flags interface boxing at hot call sites and, inside loops,
// per-record make/new and string↔[]byte conversions.
func (h *hotAlloc) checkCall(info *types.Info, call *ast.CallExpr, cold map[*types.Func]bool, loopDepth int, where string, hit func(token.Pos, string)) {
	// Builtin make/new in a loop.
	if fun, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, builtin := info.Uses[fun].(*types.Builtin); builtin {
			if loopDepth > 0 && (fun.Name == "make" || fun.Name == "new") {
				hit(call.Pos(), "per-iteration "+fun.Name+" in a loop ("+where+"): allocates per record; hoist or pool the buffer")
			}
			return
		}
	}
	// Conversions: string([]byte) / []byte(string) copy per record.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if loopDepth > 0 && len(call.Args) == 1 {
			to, from := tv.Type.Underlying(), info.TypeOf(call.Args[0])
			if from != nil && convAllocates(to, from.Underlying()) {
				hit(call.Pos(), "per-iteration string↔[]byte conversion in a loop ("+where+"): copies per record")
			}
		}
		return
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return // func values and method expressions: untracked
	}
	fn = fn.Origin()
	if cold[fn] {
		return
	}
	if pkg := fn.Pkg(); pkg != nil && (pkg.Path() == "fmt" || pkg.Path() == "log") {
		return // already flagged as a fmt/log edge
	}
	sig := signature(fn)
	if sig == nil {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis != token.NoPos && i == np-1 {
				pt = sig.Params().At(np - 1).Type() // slice passed through, no boxing
			} else if s, ok := sig.Params().At(np - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < np:
			pt = sig.Params().At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, iface := pt.Underlying().(*types.Interface); !iface {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || pointerShaped(at) {
			continue
		}
		hit(arg.Pos(), "argument boxes a "+at.String()+" into an interface parameter of "+
			h.graph.displayName(fn)+" ("+where+"): boxing allocates per call")
	}
}

// convAllocates reports whether a conversion between these underlying
// types copies memory (string↔[]byte/[]rune).
func convAllocates(to, from types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteSlice := func(t types.Type) bool {
		s, ok := t.(*types.Slice)
		if !ok {
			return false
		}
		e, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune || e.Kind() == types.Uint8 || e.Kind() == types.Int32)
	}
	return (isStr(to) && isByteSlice(from)) || (isByteSlice(to) && isStr(from))
}
