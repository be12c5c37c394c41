package main

import (
	"encoding/json"
	"os"
	"testing"

	"kstreams/internal/obs"
)

// BENCHMARK.json declares the metrics; the JSON line must report exactly
// those, in their units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end: %d in BENCHMARK.json, %d here", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %s in BENCHMARK.json, %s here", i, m.Name, endToEnd[i])
		}
	}
	empty := point{snap: &obs.Snapshot{}}
	ledger := layerMetrics(phase{w: window{{empty, empty}}}, nil, nil)
	ledger["trace.overhead_pct"] = layerMetric{0, "%"}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("per_layer: %d in BENCHMARK.json, %d here", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i] {
			t.Errorf("per_layer[%d] = %s in BENCHMARK.json, %s here", i, m.Name, perLayer[i])
		}
		if got, ok := ledger[m.Name]; !ok || got.unit != m.Unit {
			t.Errorf("per_layer %s: unit %q in BENCHMARK.json, ledger has %q (present %v)", m.Name, m.Unit, got.unit, ok)
		}
	}
}
