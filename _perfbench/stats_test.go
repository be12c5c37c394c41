package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// sortedPercentile is the reference: sort, then take the nearest rank.
func sortedPercentile(samples []time.Duration, p float64) time.Duration {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func TestPercentileMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(2000)
		spread := 1 + rng.Intn(50) // small spreads force many duplicates
		samples := make([]time.Duration, n)
		for i := range samples {
			samples[i] = time.Duration(rng.Intn(spread)) * time.Microsecond
		}
		orig := append([]time.Duration(nil), samples...)
		for _, p := range []float64{0, 1, 25, 50, 90, 99, 99.9, 100} {
			if got, want := percentile(samples, p), sortedPercentile(samples, p); got != want {
				t.Fatalf("trial %d n=%d p%v: got %v, want %v", trial, n, p, got, want)
			}
		}
		for i := range samples {
			if samples[i] != orig[i] {
				t.Fatalf("percentile reordered its input")
			}
		}
	}
}

func TestPercentileSmallCases(t *testing.T) {
	s := []time.Duration{4, 1, 3, 2}
	for p, want := range map[float64]time.Duration{50: 2, 75: 3, 100: 4, 0: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("p%v of %v = %v, want %v", p, s, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}
