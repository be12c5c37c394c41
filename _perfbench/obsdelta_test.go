package main

import (
	"testing"
	"time"

	"kstreams/internal/obs"
)

func snap(counters map[string]int64, hists map[string]obs.HistogramStat) point {
	return point{snap: &obs.Snapshot{Counters: counters, Histograms: hists}}
}

func TestWindowDeltas(t *testing.T) {
	const h = "broker_produce_latency"
	a := snap(
		map[string]int64{"txn_commits_total": 5, "t{kind=Produce}": 10, "t{kind=Fetch}": 1},
		map[string]obs.HistogramStat{h: {Count: 10, Mean: 100}},
	)
	b := snap(
		map[string]int64{"txn_commits_total": 8, "t{kind=Produce}": 40, "t{kind=Fetch}": 6},
		map[string]obs.HistogramStat{h: {Count: 30, Mean: 200}},
	)
	w := window{{a, b}}
	if got := w.counter("txn_commits_total"); got != 3 {
		t.Errorf("counter delta = %d, want 3", got)
	}
	if got := w.sumCounter("t"); got != 35 {
		t.Errorf("family delta = %d, want 35", got)
	}
	// 10 samples averaging 100, then 30 averaging 200: the 20 new samples
	// sum to 30·200 − 10·100 = 5000, a mean of 250.
	n, mean := w.hist(h)
	if n != 20 || mean != 250 {
		t.Errorf("hist delta = (%d, %v), want (20, 250)", n, mean)
	}
	if got := w.histSum(h); got != 5000 {
		t.Errorf("hist sum = %v, want 5000", got)
	}
	if n, mean := w.hist("absent"); n != 0 || mean != 0 {
		t.Errorf("absent hist = (%d, %v), want zeros", n, mean)
	}
	if n, mean := (window{{b, b}}).hist(h); n != 0 || mean != 0 {
		t.Errorf("empty window = (%d, %v), want zeros", n, mean)
	}
}

// A phase repeated on fresh clusters sums its intervals: each cluster's
// registry starts from zero, so deltas never cross clusters.
func TestWindowAcrossClusters(t *testing.T) {
	const h = "broker_append_latency"
	t0 := time.Unix(100, 0)
	first := interval{
		a: point{at: t0, snap: &obs.Snapshot{Counters: map[string]int64{"c": 1}, Histograms: map[string]obs.HistogramStat{h: {Count: 2, Mean: 10}}}, allocs: 5},
		b: point{at: t0.Add(time.Second), snap: &obs.Snapshot{Counters: map[string]int64{"c": 4}, Histograms: map[string]obs.HistogramStat{h: {Count: 4, Mean: 20}}}, allocs: 9},
	}
	second := interval{
		a: point{at: t0.Add(3 * time.Second), snap: &obs.Snapshot{Counters: map[string]int64{}, Histograms: map[string]obs.HistogramStat{}}, allocs: 20},
		b: point{at: t0.Add(5 * time.Second), snap: &obs.Snapshot{Counters: map[string]int64{"c": 2}, Histograms: map[string]obs.HistogramStat{h: {Count: 4, Mean: 70}}}, allocs: 30},
	}
	w := window{first, second}
	if got := w.wall(); got != 3*time.Second {
		t.Errorf("wall = %v, want 3s", got)
	}
	if got := w.counter("c"); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	// First cluster: 2 new samples summing 80−20 = 60; second: 4 summing
	// 280. Mean over both: 340/6.
	if n, mean := w.hist(h); n != 6 || mean != 340.0/6 {
		t.Errorf("hist = (%d, %v), want (6, %v)", n, mean, 340.0/6)
	}
	if _, allocs, _, _ := w.runtimeDelta(); allocs != 14 {
		t.Errorf("allocs = %d, want 14", allocs)
	}
	if w.contains(t0.Add(2*time.Second)) || !w.contains(t0.Add(4*time.Second)) {
		t.Error("contains ignores the gap between intervals")
	}
}
