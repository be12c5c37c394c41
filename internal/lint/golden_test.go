package lint_test

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"reflect"
	"sort"
	"sync"
	"testing"

	"kstreams/internal/lint"
)

// The fixture-corpus golden pins every lintFixture source's complete
// output — positions and messages, under every rule with lint.Config{} —
// so a change to a shared walker or fixpoint that shifts any finding
// anywhere in the corpus fails here, not only in the rules the fixture's
// own test selects. Regenerate after an intended change with
//
//	go test ./internal/lint -update
//
// -update writes exactly the fixtures that ran, so it refuses a -run
// filter: a partial run would drop every other entry.

var updateGolden = flag.Bool("update", false, "rewrite "+goldenPath+" from the current analyzers")

const goldenPath = "testdata/fixtures.golden.json"

// goldenEntry is one fixture's pinned output: the rule subset its test
// selects (empty = all) and every rule's findings under lint.Config{}.
type goldenEntry struct {
	Rules    []string              `json:"rules"`
	Findings []lint.JSONDiagnostic `json:"findings"`
}

var (
	goldenOnce sync.Once
	golden     map[string]goldenEntry
	goldenErr  error

	goldenMu   sync.Mutex
	goldenSeen = make(map[string]goldenEntry)
)

func TestMain(m *testing.M) {
	flag.Parse()
	if run := flag.Lookup("test.run"); *updateGolden && run != nil && run.Value.String() != "" {
		fmt.Fprintln(os.Stderr, "-update rewrites the whole golden; run the full suite without -run")
		os.Exit(2)
	}
	code := m.Run()
	if *updateGolden && code == 0 {
		if err := writeGolden(); err != nil {
			fmt.Fprintln(os.Stderr, "update golden:", err)
			code = 1
		}
	}
	os.Exit(code)
}

func loadGolden() (map[string]goldenEntry, error) {
	goldenOnce.Do(func() {
		data, err := os.ReadFile(goldenPath)
		if errors.Is(err, fs.ErrNotExist) {
			golden = map[string]goldenEntry{}
			return
		}
		if err != nil {
			goldenErr = err
			return
		}
		goldenErr = json.Unmarshal(data, &golden)
	})
	return golden, goldenErr
}

func writeGolden() error {
	data, err := json.MarshalIndent(goldenSeen, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}

// checkGolden runs every rule over a fixture package and compares the
// result with its pinned entry (or records it under -update).
func checkGolden(t *testing.T, ldr *lint.Loader, pkg *lint.Package, dirRel string, rules []string) {
	t.Helper()
	diags := lint.LintPackage(ldr, pkg, lint.Config{}, lint.Analyzers(ldr.ModulePath()))
	data, err := lint.ToJSON(diags)
	if err != nil {
		t.Fatal(err)
	}
	got := goldenEntry{Rules: append([]string{}, rules...)}
	sort.Strings(got.Rules)
	if err := json.Unmarshal(data, &got.Findings); err != nil {
		t.Fatal(err)
	}
	goldenMu.Lock()
	defer goldenMu.Unlock()
	if prev, dup := goldenSeen[dirRel]; dup && !reflect.DeepEqual(prev, got) {
		t.Fatalf("fixture dir %s linted with two different outcomes; golden entries are keyed by dir", dirRel)
	}
	goldenSeen[dirRel] = got
	if *updateGolden {
		return
	}
	want, err := loadGolden()
	if err != nil {
		t.Fatalf("load %s: %v", goldenPath, err)
	}
	entry, ok := want[dirRel]
	if !ok {
		t.Errorf("no golden entry for %s; regenerate with go test ./internal/lint -update", dirRel)
		return
	}
	if !reflect.DeepEqual(entry, got) {
		wantJSON, _ := json.MarshalIndent(entry, "", "  ")
		gotJSON, _ := json.MarshalIndent(got, "", "  ")
		t.Errorf("fixture %s drifted from %s\nwant %s\ngot  %s", dirRel, goldenPath, wantJSON, gotJSON)
	}
}
