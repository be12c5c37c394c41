package main

import (
	"runtime"
	"syscall"
	"time"

	"kstreams/internal/obs"
)

// point is everything the benchmark reads at a phase boundary: the
// cluster's obs registry, the Go runtime, and process CPU time.
type point struct {
	at     time.Time
	snap   *obs.Snapshot
	cpu    time.Duration // user + system time of the whole process
	allocs uint64        // heap objects allocated so far
	gcs    uint32
	pause  time.Duration // cumulative stop-the-world GC pause
}

func takePoint(snap *obs.Snapshot) point {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return point{
		at:     time.Now(),
		snap:   snap,
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: ms.Mallocs,
		gcs:    ms.NumGC,
		pause:  time.Duration(ms.PauseTotalNs),
	}
}

// interval is the difference between two points taken on one cluster.
type interval struct{ a, b point }

// window is one measured phase: one interval, or one per cluster when a
// workload repeats its phase on fresh clusters. The registry's counters
// and histograms are cumulative over a cluster's life, so a phase's
// numbers are the sum over its intervals of end minus start.
type window []interval

func (w window) wall() (d time.Duration) {
	for _, iv := range w {
		d += iv.b.at.Sub(iv.a.at)
	}
	return d
}

func (w window) contains(t time.Time) bool {
	for _, iv := range w {
		if !t.Before(iv.a.at) && t.Before(iv.b.at) {
			return true
		}
	}
	return false
}

func (w window) counter(full string) (n int64) {
	for _, iv := range w {
		n += iv.b.snap.Counter(full) - iv.a.snap.Counter(full)
	}
	return n
}

func (w window) sumCounter(base string) (n int64) {
	for _, iv := range w {
		n += iv.b.snap.SumCounter(base) - iv.a.snap.SumCounter(base)
	}
	return n
}

// hist returns a histogram's sample count and mean within the window, in
// the histogram's unit (ns for latencies). A snapshot's mean is exact
// (sum/count), so the phase mean is Δ(count·mean) ÷ Δcount.
func (w window) hist(full string) (count int64, mean float64) {
	var total float64
	for _, iv := range w {
		ha, hb := iv.a.snap.Histograms[full], iv.b.snap.Histograms[full]
		count += hb.Count - ha.Count
		total += float64(hb.Count)*float64(hb.Mean) - float64(ha.Count)*float64(ha.Mean)
	}
	if count <= 0 {
		return 0, 0
	}
	return count, total / float64(count)
}

// histSum is a histogram's total (count·mean) within the window.
func (w window) histSum(full string) float64 {
	n, mean := w.hist(full)
	return float64(n) * mean
}

// runtimeDelta is the process's CPU time, allocations, GC cycles and GC
// pause within the window.
func (w window) runtimeDelta() (cpu time.Duration, allocs uint64, gcs uint32, pause time.Duration) {
	for _, iv := range w {
		cpu += iv.b.cpu - iv.a.cpu
		allocs += iv.b.allocs - iv.a.allocs
		gcs += iv.b.gcs - iv.a.gcs
		pause += iv.b.pause - iv.a.pause
	}
	return
}
