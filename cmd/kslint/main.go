// Command kslint runs the repo's custom static-analysis pass (see
// internal/lint): seventeen analyzers that machine-check the determinism,
// locking, memory-lifetime, goroutine-lifecycle, transaction-protocol,
// and observability invariants the reproduction's guarantees rest on. It
// loads the module with go/parser + go/types only (no x/tools), so it
// builds anywhere the repo builds.
//
// Usage:
//
//	kslint [-root dir] [-rules wallclock,errdrop,...] [-list] [-json]
//	       [-sarif] [-graph] [-timings] [-maxwall d]
//
// Default output is one line per finding — file:line:col: rule: message —
// stable-sorted so CI diffs are reproducible. -json emits the same
// findings as a JSON array (an empty array when clean) for tooling;
// -sarif emits them as a SARIF 2.1.0 log for GitHub code scanning;
// -graph prints the interprocedural call graph that the wallclock,
// lockorder, and txnproto rules walk, and exits without linting.
//
// Analysis wall time is always reported on stderr; -timings adds the
// per-rule breakdown, and -maxwall fails the run (exit 3) when analysis
// exceeds the given budget — `make check` pins 60s so a rule whose
// fixpoint regresses into pathology is caught as a build failure, not a
// slow creep.
//
// Exit status 1 when any diagnostic survives the per-path allowlists and
// //kslint:ignore / //kslint:file-ignore suppressions, 2 on an unknown
// -rules name or a load/type-check failure, 3 on a -maxwall budget
// overrun.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"kstreams/internal/lint"
)

func main() {
	root := flag.String("root", ".", "module root (directory containing go.mod)")
	rules := flag.String("rules", "", "comma-separated rule subset (default: all)")
	list := flag.Bool("list", false, "print the rules and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	sarifOut := flag.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log")
	graph := flag.Bool("graph", false, "dump the module call graph and exit")
	timings := flag.Bool("timings", false, "print the per-rule analysis time breakdown")
	maxWall := flag.Duration("maxwall", 0, "fail if analysis wall time exceeds this budget (0 = no budget)")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers("kstreams") {
			fmt.Printf("%-12s %s\n", a.Name(), a.Doc())
		}
		return
	}

	if *graph {
		loader, err := lint.NewLoader(*root)
		if err != nil {
			fail(err)
		}
		mod, err := loader.LoadAll()
		if err != nil {
			fail(err)
		}
		fmt.Print(lint.BuildCallGraph(mod).Dump())
		return
	}

	var filter []string
	if *rules != "" {
		filter = strings.Split(*rules, ",")
	}
	diags, tm, err := lint.RunTimed(*root, lint.DefaultConfig(), filter)
	if err != nil {
		fail(err)
	}
	switch {
	case *jsonOut:
		data, err := lint.ToJSON(diags)
		if err != nil {
			fail(err)
		}
		fmt.Println(string(data))
	case *sarifOut:
		data, err := lint.ToSARIF(diags)
		if err != nil {
			fail(err)
		}
		fmt.Println(string(data))
	default:
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	fmt.Fprintf(os.Stderr, "kslint: analysis took %s\n", tm.Wall.Round(time.Millisecond))
	if *timings {
		fmt.Fprint(os.Stderr, tm)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "kslint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
	if *maxWall > 0 && tm.Wall > *maxWall {
		fmt.Fprintf(os.Stderr, "kslint: analysis wall time %s exceeded the %s budget\n",
			tm.Wall.Round(time.Millisecond), *maxWall)
		os.Exit(3)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "kslint:", err)
	os.Exit(2)
}
