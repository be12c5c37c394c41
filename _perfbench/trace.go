package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"kstreams/internal/obs"
)

// span is one timed call the benchmark made into a layer of the program.
// Times are ns since the tracer's origin; a root span (parent 0) names its
// own trace, and every span below it carries that trace id.
type span struct {
	name       string
	id, parent int32
	trace      int32
	start, end int64
	n          int32 // records the call handled (Poll: returned, Flush: sent)
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// tracer keeps spans in memory until the run ends. A nil tracer (the
// untraced runs) records nothing, so call sites need no guards.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) offset(at time.Time) int64 { return int64(at.Sub(t.origin)) }

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	trace := id
	if parent != 0 {
		trace = t.spans[parent-1].trace
	}
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, trace: trace, start: now, end: now})
	return id
}

// end closes span id, recording n records handled.
func (t *tracer) end(id int32, n int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id-1].end = now
	t.spans[id-1].n = int32(n)
	t.mu.Unlock()
}

// call wraps one call into the program in a span.
func (t *tracer) call(name string, parent int32, fn func() error) error {
	sp := t.begin(name, parent)
	err := fn()
	t.end(sp, 0)
	return err
}

// sendSpanEvery samples the closed loops' Send spans: millions of sends
// would make the traced run's spans its largest allocation. It is prime,
// so the sample does not lock onto the batch cadence and miss the Sends
// that flush a full batch. The open-loop generator spans every Send.
const sendSpanEvery = 17

// sampledSend opens a span for the i-th Send of a closed loop when it is
// sampled, and returns 0 (a span end ignores) when it is not.
func sampledSend(t *tracer, parent int32, i int) int32 {
	if i%sendSpanEvery != 0 {
		return 0
	}
	return t.begin("Producer.Send", parent)
}

// addCommitTraces files the stream thread's own commit traces under the
// benchmark's spans: one root per commit, one child per broker round-trip
// the commit made, named after the RPC kind.
func (t *tracer) addCommitTraces(trs []*obs.Trace) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tr := range trs {
		root := int32(len(t.spans) + 1)
		start := t.offset(tr.Start)
		t.spans = append(t.spans, span{name: "StreamThread.commit", id: root, trace: root,
			start: start, end: start + int64(tr.Dur())})
		for _, s := range tr.Spans() {
			id := int32(len(t.spans) + 1)
			st := t.offset(s.Start)
			t.spans = append(t.spans, span{name: "rpc." + s.Name, id: id, parent: root, trace: root,
				start: st, end: st + int64(s.Dur)})
		}
	}
}

// within returns the spans named name that started inside the window.
func (t *tracer) within(name string, w window) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.name == name && w.contains(t.origin.Add(time.Duration(s.start))) {
			out = append(out, s)
		}
	}
	return out
}

// layerRow is one line of the self-time table: a span name's calls, total
// time, and self time (time not covered by its child spans).
type layerRow struct {
	name        string
	calls       int64
	total, self time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval its children cover (overlapping children
// count once).
func selfTimes(spans []span) []layerRow {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	rows := map[string]*layerRow{}
	for _, s := range spans {
		r := rows[s.name]
		if r == nil {
			r = &layerRow{name: s.name}
			rows[s.name] = r
		}
		r.calls++
		r.total += s.dur()
		r.self += s.dur() - covered(s, children[s.id])
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].name < out[j].name
	})
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	sum += curHi - curLo
	return time.Duration(sum)
}

func writeSelfTimes(w io.Writer, rows []layerRow, wall time.Duration) {
	fmt.Fprintf(w, "%-28s %10s %12s %12s %8s\n", "span", "calls", "total_ms", "self_ms", "self_%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %10d %12.3f %12.3f %8.2f\n", r.name, r.calls, ms(r.total), ms(r.self),
			100*float64(r.self)/float64(wall))
	}
}

// writeSpans writes every span as gzip'd tab-separated lines:
// id, parent, trace, name, start_ns, end_ns, records.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id\tparent\ttrace\tname\tstart_ns\tend_ns\trecords")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", s.id, s.parent, s.trace, s.name, s.start, s.end, s.n)
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}

// commitCollector drains the registry's 16-entry recent-trace ring often
// enough that no stream-thread commit trace is overwritten unread (one
// thread commits every 100 ms, so the ring fills in no less than 1.6 s).
type commitCollector struct {
	reg    *obs.Registry
	seen   map[*obs.Trace]bool
	traces []*obs.Trace
	stop   chan struct{}
	done   chan struct{}
}

const commitDrainEvery = 20 * time.Millisecond

func startCommitCollector(reg *obs.Registry) *commitCollector {
	c := &commitCollector{reg: reg, seen: map[*obs.Trace]bool{}, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		tick := time.NewTicker(commitDrainEvery)
		defer tick.Stop()
		for {
			c.drain()
			select {
			case <-c.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return c
}

func (c *commitCollector) drain() {
	for _, tr := range c.reg.RecentTraces() {
		if !c.seen[tr] && strings.HasSuffix(tr.Name, "-commit") {
			c.seen[tr] = true
			c.traces = append(c.traces, tr)
		}
	}
}

// close stops the collector after a last drain and returns every commit
// trace seen, in the order collected.
func (c *commitCollector) close() []*obs.Trace {
	close(c.stop)
	<-c.done
	c.drain()
	return c.traces
}
