package lint

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Per-rule wall-time accounting for the lint budget gate (`make check`
// fails when the whole analysis blows its 60s budget, and the -timings
// breakdown says which rule to blame). A rule's time is the sum of its
// Run calls across every package plus its Finalize, so the module-wide
// rules (call-graph walkers) charge their fixpoints where they happen.
//
// This file is why internal/lint sits on the wallclock allowlist in
// DefaultConfig: the linter is developer tooling measuring itself, not
// production stream-processing code, so the determinism rationale the
// rule protects does not apply here.

// RuleTiming is one rule's accumulated analysis wall time.
type RuleTiming struct {
	Rule    string
	Elapsed time.Duration
}

// Timings is a RunAnalyzersTimed breakdown: per-rule entries sorted
// slowest-first, plus the load-independent analysis wall total (graph
// build + every Run + every Finalize + filtering).
type Timings struct {
	Rules []RuleTiming
	Wall  time.Duration
}

// String renders the breakdown as aligned lines, slowest rule first.
func (t Timings) String() string {
	var b strings.Builder
	for _, rt := range t.Rules {
		b.WriteString("  ")
		b.WriteString(rt.Rule)
		for i := len(rt.Rule); i < 12; i++ {
			b.WriteByte(' ')
		}
		b.WriteString(" ")
		b.WriteString(rt.Elapsed.Round(time.Microsecond).String())
		b.WriteByte('\n')
	}
	b.WriteString("  total        ")
	b.WriteString(t.Wall.Round(time.Microsecond).String())
	b.WriteByte('\n')
	return b.String()
}

// RunTimed is Run with a timing breakdown: same diagnostics, plus how
// long each rule and the whole analysis took.
func RunTimed(root string, cfg Config, ruleFilter []string) ([]Diagnostic, Timings, error) {
	loader, err := NewLoader(root)
	if err != nil {
		return nil, Timings{}, err
	}
	analyzers, err := selectAnalyzers(loader.ModulePath(), ruleFilter)
	if err != nil {
		return nil, Timings{}, err
	}
	mod, err := loader.LoadAll()
	if err != nil {
		return nil, Timings{}, err
	}
	diags, timings := RunAnalyzersTimed(mod, cfg, analyzers)
	return diags, timings, nil
}

// RunAnalyzersTimed applies analyzers to an already-loaded module,
// recording per-rule wall time. RunAnalyzers delegates here and drops the
// breakdown, so both paths run the identical analysis.
func RunAnalyzersTimed(mod *Module, cfg Config, analyzers []Analyzer) ([]Diagnostic, Timings) {
	perRule := make(map[string]time.Duration, len(analyzers))
	start := time.Now()
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	graph := BuildCallGraph(mod)
	for _, pkg := range mod.Pkgs {
		pass := &Pass{Module: mod.Path, Fset: mod.Fset, Pkg: pkg, Graph: graph, report: report}
		for _, a := range analyzers {
			t0 := time.Now()
			a.Run(pass)
			perRule[a.Name()] += time.Since(t0)
		}
	}
	for _, a := range analyzers {
		if f, ok := a.(Finalizer); ok {
			t0 := time.Now()
			f.Finalize(report)
			perRule[a.Name()] += time.Since(t0)
		}
	}
	diags = filter(mod, cfg, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	timings := Timings{Wall: time.Since(start)}
	for _, a := range analyzers {
		timings.Rules = append(timings.Rules, RuleTiming{Rule: a.Name(), Elapsed: perRule[a.Name()]})
	}
	sort.SliceStable(timings.Rules, func(i, j int) bool {
		return timings.Rules[i].Elapsed > timings.Rules[j].Elapsed
	})
	return diags, timings
}

// selectAnalyzers resolves the rule subset for a module, all rules when
// the filter is empty. A name that matches no rule is an error: a
// misspelled or retired rule must not silently lint nothing.
func selectAnalyzers(module string, ruleFilter []string) ([]Analyzer, error) {
	analyzers := Analyzers(module)
	if len(ruleFilter) == 0 {
		return analyzers, nil
	}
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name()] = true
	}
	keep := make(map[string]bool, len(ruleFilter))
	for _, r := range ruleFilter {
		r = strings.TrimSpace(r)
		if r == "" {
			continue
		}
		if !known[r] {
			return nil, fmt.Errorf("unknown rule %q (kslint -list shows the rules)", r)
		}
		keep[r] = true
	}
	var sel []Analyzer
	for _, a := range analyzers {
		if keep[a.Name()] {
			sel = append(sel, a)
		}
	}
	return sel, nil
}
