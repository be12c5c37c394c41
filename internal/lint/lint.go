// Package lint implements kslint, the repo's stdlib-only static-analysis
// pass. The paper's guarantees (exactly-once commit cycles, revision-based
// completeness) only reproduce while the harness stays deterministic and
// the broker/client hot paths keep their concurrency discipline; kslint
// machine-checks those invariants instead of leaving them to review:
//
//	norawrand    no global math/rand functions (seeded *rand.Rand only)
//	lockheld-rpc no mutex held across a transport RPC or channel send
//	sendtraced   client-side RPCs use SendTraced so obs spans stay complete
//	errdrop      no silently discarded errors from broker/client APIs
//	obsnames     metric families follow the DESIGN §7 naming scheme and
//	             each family is registered from a single package
//	wallclock    no production call closure — a raw time.Sleep or timer
//	             included — reaches wall-clock time outside the
//	             retry.Clock / obs seams, so fault-injection timing stays
//	             deterministic (interprocedural, with a witness chain)
//	lockorder    no cycle in the module-wide lock-order graph — potential
//	             deadlocks reported with a call-graph witness path
//	lockbalance  no mutex still held (and not defer-unlocked) on any
//	             path out of a function
//	txnproto     transactional producers follow begin→offsets→commit/abort
//	             on every path, seen through wrappers and interfaces
//	poollife     no use, alias, or second Put of a pooled buffer after it
//	             was released to its pool (path-sensitive, with release
//	             summaries over the call graph)
//	zerocopy     no retention or mutation of zero-copy batch views
//	             (shared decode results, WAL cache entries) outside the
//	             DESIGN §10 ownership contract (taint, witness chains)
//	atomicmix    a field accessed via sync/atomic anywhere is accessed
//	             atomically everywhere (module-wide census)
//	hotalloc     no fmt/log, unpreallocated grow-append, interface
//	             boxing, or per-record allocation reachable from
//	             //kslint:hotpath roots; //kslint:coldpath is the seam
//	goleak       every production go statement has a termination witness:
//	             a signal-channel (chan struct{}) receive, an exit path,
//	             a bound, or a //kslint:finite reason on its function
//	chanown      each package-level or struct-field channel has exactly
//	             one closing function, and no send or second close is
//	             reachable after a close on any path
//	waitbalance  sync.WaitGroup Add(n) literals balance the Done sites of
//	             the function and every goroutine it spawns; no Add
//	             inside a spawned goroutine
//	spinloop     no loop reachable from a //kslint:hotpath root can
//	             busy-spin: unbounded loops block on a channel, cond, or
//	             clock each iteration
//
// Ten are interprocedural — wallclock, lockorder, txnproto, poollife,
// zerocopy, hotalloc, goleak, chanown, waitbalance, spinloop: they query
// the module-wide call graph built in callgraph.go (static dispatch plus
// interface-method resolution over the module's concrete types) and
// share its one summary fixpoint and one reach walk. Six are
// path-sensitive — lockheld-rpc, lockbalance, lockorder, txnproto,
// poollife, chanown: each supplies a lattice to the one dataflow engine
// in flow.go, which owns branching, joins, loops and defers. Analyzers
// are written purely on go/ast + go/parser + go/types; see loader.go for
// how the module is type-checked without x/tools. Findings can be
// suppressed per line with `//kslint:ignore <rule>[,<rule>] reason`, per
// file with `//kslint:file-ignore <rule> reason`, and per path prefix
// through Config.Allow; the goroutine-lifecycle rules (DESIGN.md §12)
// honor `//kslint:finite <reason>` on a function's doc comment as a
// termination assertion.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Diagnostic is one finding at a source position (module-relative file).
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Pass hands one type-checked package to an analyzer, together with the
// module-wide call graph the interprocedural rules query. Graph is the
// same object across every package's pass, so a Finalizer may retain it.
type Pass struct {
	Module string // module path, e.g. "kstreams"
	Fset   *token.FileSet
	Pkg    *Package
	Graph  *CallGraph
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, rule, format string, args ...any) {
	p.report(Diagnostic{Pos: p.Fset.Position(pos), Rule: rule, Message: fmt.Sprintf(format, args...)})
}

// Analyzer is one kslint rule.
type Analyzer interface {
	// Name is the rule id used in output, allowlists, and ignore comments.
	Name() string
	// Doc is the one-line description printed by kslint -list.
	Doc() string
	// Run inspects one package and reports findings on the pass.
	Run(*Pass)
}

// Finalizer is implemented by analyzers that also need a module-wide view
// (e.g. obsnames' single-registration-package check); Finalize runs once
// after every package's Run.
type Finalizer interface {
	Finalize(report func(Diagnostic))
}

// Config scopes the rules: Allow maps a rule name to module-relative path
// prefixes (directories or files) exempt from it.
type Config struct {
	Allow map[string][]string
}

// DefaultConfig is the repository policy. Allowlist rationale:
//
//   - sendtraced: internal/transport defines Send; broker-to-broker and
//     controller RPCs (internal/broker, internal/cluster) carry no
//     client trace context by design — spans attribute *client*
//     operations; cmd and examples are untraced tooling.
//   - wallclock: internal/harness and internal/experiments are the
//     wall-clock experiment drivers, and cmd and examples are interactive
//     demos: they run in real time on purpose, so their closures may
//     reach the wall clock. (internal/retry and internal/obs are the
//     seams themselves and are exempt in the rule.) internal/lint itself
//     is on the list for one reason: the linter times its own analysis
//     (timing.go) for the `make lint` budget gate, and developer tooling
//     measuring itself has no determinism contract to protect.
func DefaultConfig() Config {
	return Config{Allow: map[string][]string{
		"wallclock": {
			"internal/harness",
			"internal/experiments",
			"internal/lint",
			"cmd",
			"examples",
		},
		"sendtraced": {
			"internal/transport",
			"internal/broker",
			"internal/cluster",
			"cmd",
			"examples",
		},
	}}
}

// allowed reports whether file (module-relative) is exempt from rule.
func (c Config) allowed(rule, file string) bool {
	for _, prefix := range c.Allow[rule] {
		prefix = strings.TrimSuffix(prefix, "/")
		if file == prefix || strings.HasPrefix(file, prefix+"/") {
			return true
		}
	}
	return false
}

// Analyzers returns the full rule set for a module path.
func Analyzers(module string) []Analyzer {
	return []Analyzer{
		noRawRand{},
		lockHeld{module: module},
		sendTraced{module: module},
		errDrop{module: module},
		newObsNames(module),
		wallClock{module: module},
		newLockOrder(module),
		lockBalance{},
		newTxnProto(module),
		newPoolLife(module),
		newZeroCopy(module),
		newAtomicMix(module),
		newHotAlloc(module),
		newGoLeak(module),
		newChanOwn(module),
		newWaitBalance(module),
		newSpinLoop(module),
	}
}

// Run lints the module rooted at root: every package is loaded and
// type-checked, each analyzer (optionally restricted to ruleFilter names)
// runs over it, and the surviving diagnostics — after per-path allowlists
// and //kslint:ignore suppressions — are returned stable-sorted by
// file, line, column, rule, message so CI diffs are reproducible.
func Run(root string, cfg Config, ruleFilter []string) ([]Diagnostic, error) {
	diags, _, err := RunTimed(root, cfg, ruleFilter)
	return diags, err
}

// RunAnalyzers applies analyzers to an already-loaded module. Split out
// so tests can lint fixture packages with a custom config. Delegates to
// RunAnalyzersTimed (timing.go) and drops the breakdown.
func RunAnalyzers(mod *Module, cfg Config, analyzers []Analyzer) []Diagnostic {
	diags, _ := RunAnalyzersTimed(mod, cfg, analyzers)
	return diags
}

// LintPackage runs analyzers over a single (usually fixture) package.
func LintPackage(loader *Loader, pkg *Package, cfg Config, analyzers []Analyzer) []Diagnostic {
	mod := &Module{Root: loader.Root(), Path: loader.ModulePath(), Fset: loader.Fset(), Pkgs: []*Package{pkg}}
	return RunAnalyzers(mod, cfg, analyzers)
}

// filter drops allowlisted and comment-suppressed diagnostics.
func filter(mod *Module, cfg Config, diags []Diagnostic) []Diagnostic {
	suppressed := make(map[string]map[int][]string)
	fileIgnored := make(map[string][]string)
	for _, pkg := range mod.Pkgs {
		for file, lines := range pkg.suppress {
			suppressed[file] = lines
		}
		for file, rules := range pkg.fileIgnore {
			fileIgnored[file] = rules
		}
	}
	var out []Diagnostic
	for _, d := range diags {
		if cfg.allowed(d.Rule, d.Pos.Filename) {
			continue
		}
		if rulesSuppressed(suppressed[d.Pos.Filename][d.Pos.Line], d.Rule) {
			continue
		}
		if rulesSuppressed(fileIgnored[d.Pos.Filename], d.Rule) {
			continue
		}
		out = append(out, d)
	}
	return out
}

func rulesSuppressed(rules []string, rule string) bool {
	for _, r := range rules {
		if r == rule || r == "all" {
			return true
		}
	}
	return false
}

// suppressions extracts //kslint:ignore directives from a file. A
// directive suppresses the named rules on its own line (trailing comment)
// and on the line below it (standalone comment above the statement):
//
//	foo()            //kslint:ignore errdrop best-effort cleanup
//	//kslint:ignore wallclock settle delay is part of the scenario
//	time.Sleep(d)
func suppressions(fset *token.FileSet, f *ast.File) map[int][]string {
	out := make(map[int][]string)
	for _, group := range f.Comments {
		for _, c := range group.List {
			rest, ok := strings.CutPrefix(c.Text, "//kslint:ignore")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				continue
			}
			var rules []string
			for _, r := range strings.Split(fields[0], ",") {
				if r = strings.TrimSpace(r); r != "" {
					rules = append(rules, r)
				}
			}
			line := fset.Position(c.Pos()).Line
			out[line] = append(out[line], rules...)
			out[line+1] = append(out[line+1], rules...)
		}
	}
	return out
}

// fileIgnores extracts //kslint:file-ignore directives: each suppresses
// the named rules (or "all") for the entire file it appears in. Like the
// line form, a reason is required by convention and carried in the
// comment:
//
//	//kslint:file-ignore wallclock this file owns the wall-clock seam
func fileIgnores(f *ast.File) []string {
	var rules []string
	for _, group := range f.Comments {
		for _, c := range group.List {
			rest, ok := strings.CutPrefix(c.Text, "//kslint:file-ignore")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				continue
			}
			for _, r := range strings.Split(fields[0], ",") {
				if r = strings.TrimSpace(r); r != "" {
					rules = append(rules, r)
				}
			}
		}
	}
	return rules
}

// JSONDiagnostic is the stable wire form of a finding for kslint -json.
type JSONDiagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

// ToJSON renders diagnostics as an indented JSON array in the same
// stable order RunAnalyzers emits them (an empty slice renders as []).
func ToJSON(diags []Diagnostic) ([]byte, error) {
	out := make([]JSONDiagnostic, 0, len(diags))
	for _, d := range diags {
		out = append(out, JSONDiagnostic{
			File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
			Rule: d.Rule, Message: d.Message,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}

// --- shared type-resolution helpers used by the analyzers ---

// calleeFunc resolves the *types.Func a call invokes (package function or
// method), or nil for builtins, conversions, and indirect calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isPkgFunc reports whether fn is the package-level function pkgPath.name
// (receiver-less), e.g. time.Sleep.
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath &&
		fn.Name() == name && signature(fn).Recv() == nil
}

// isMethod reports whether fn is a method named name on the named type
// typeName (possibly behind a pointer) declared in pkgPath.
func isMethod(fn *types.Func, pkgPath, typeName, name string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath || fn.Name() != name {
		return false
	}
	recv := signature(fn).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == typeName
}

// signature returns fn's *types.Signature (portable across go versions).
func signature(fn *types.Func) *types.Signature {
	return fn.Type().(*types.Signature)
}

// lastResultIsError reports whether fn's final result is the error type.
func lastResultIsError(fn *types.Func) bool {
	res := signature(fn).Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
