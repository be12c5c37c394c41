package lint

import (
	"strings"
	"testing"
)

func TestSelectAnalyzersRejectsUnknownRules(t *testing.T) {
	sel, err := selectAnalyzers("kstreams", []string{"wallclock", " norawrand", ""})
	if err != nil {
		t.Fatalf("known rules rejected: %v", err)
	}
	if len(sel) != 2 || sel[0].Name() != "norawrand" || sel[1].Name() != "wallclock" {
		t.Fatalf("selected %d rules, want norawrand and wallclock in rule order", len(sel))
	}
	for _, bad := range []string{"nosleep", "nosleepx"} {
		_, err := selectAnalyzers("kstreams", []string{"wallclock", bad})
		if err == nil || !strings.Contains(err.Error(), `"`+bad+`"`) {
			t.Fatalf("-rules %s: err = %v, want an error naming the rule", bad, err)
		}
	}
	if all, err := selectAnalyzers("kstreams", nil); err != nil || len(all) != len(Analyzers("kstreams")) {
		t.Fatalf("empty filter should select every rule: %d rules, err %v", len(all), err)
	}
}
