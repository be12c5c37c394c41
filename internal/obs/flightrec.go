package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// FlightEvent is one entry in the flight recorder's ring: a finished
// span, an injected fault, an invariant violation, or any other
// operator-relevant moment worth keeping for a post-mortem.
type FlightEvent struct {
	// Seq is the global record order (dense, starts at 0). Ring eviction
	// drops the lowest sequences first.
	Seq uint64 `json:"seq"`
	// TS is the event time in nanoseconds on whatever clock the caller
	// records with (virtual nanoseconds under simulation, wall otherwise).
	TS int64 `json:"ts_ns"`
	// Kind classifies the event: "span", "trace", "fault", "violation",
	// "stall", "note".
	Kind string `json:"kind"`
	// Name is the short identity (span name, fault kind, invariant tag).
	Name string `json:"name"`
	// Detail carries free-form context (schedule event text, violation
	// message).
	Detail string `json:"detail,omitempty"`
	// Dur is the event duration in nanoseconds (spans; 0 otherwise).
	Dur int64 `json:"dur_ns,omitempty"`
}

// FlightRecorder is a fixed-size lock-free ring of recent FlightEvents:
// the black box that turns a red nightly into a self-contained
// post-mortem artifact. Record publishes each event with a single atomic
// pointer store, so writers on hot-ish paths never contend on a lock;
// the ring simply overwrites the oldest slot once full. A nil
// *FlightRecorder (recording disabled) makes every method a no-op, the
// same contract as the registry's instruments.
type FlightRecorder struct {
	mask  uint64
	seq   atomic.Uint64
	slots []atomic.Pointer[FlightEvent]

	// Wired by Registry.SetFlightRecorder; nil-safe when unwired.
	events     *Counter // flightrec_events_total
	overwrites *Counter // flightrec_overwrites_total
	dumps      *Counter // flightrec_dumps_total

	dumpMu sync.Mutex
}

// NewFlightRecorder returns a recorder keeping the last capacity events
// (rounded up to a power of two, minimum 64).
func NewFlightRecorder(capacity int) *FlightRecorder {
	n := 64
	for n < capacity {
		n <<= 1
	}
	return &FlightRecorder{mask: uint64(n - 1), slots: make([]atomic.Pointer[FlightEvent], n)}
}

// Record appends one event. Safe for concurrent use; the only cost on
// the disabled (nil) path is the receiver check.
func (f *FlightRecorder) Record(kind, name, detail string, ts, dur int64) {
	if f == nil {
		return
	}
	seq := f.seq.Add(1) - 1
	ev := &FlightEvent{Seq: seq, TS: ts, Kind: kind, Name: name, Detail: detail, Dur: dur}
	f.slots[seq&f.mask].Store(ev)
	f.events.Inc()
	if seq > f.mask {
		f.overwrites.Inc()
	}
}

// Len returns how many events have ever been recorded (not just those
// still resident in the ring).
func (f *FlightRecorder) Len() uint64 {
	if f == nil {
		return 0
	}
	return f.seq.Load()
}

// Events returns the resident events in sequence order (oldest first).
// Concurrent writers may be mid-overwrite; whatever pointer each slot
// holds at read time is returned, so the result is a consistent set of
// whole events even if not a perfectly contiguous sequence window.
func (f *FlightRecorder) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	out := make([]FlightEvent, 0, len(f.slots))
	for i := range f.slots {
		if ev := f.slots[i].Load(); ev != nil {
			out = append(out, *ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// flightDump is the on-disk artifact layout: one JSON object, so a
// post-mortem is a single parseable file.
type flightDump struct {
	Version  int           `json:"version"`
	Reason   string        `json:"reason"`
	Recorded uint64        `json:"recorded_total"`
	Resident int           `json:"resident"`
	Events   []FlightEvent `json:"events"`
}

// flightDumpVersion is bumped on incompatible artifact layout changes.
const flightDumpVersion = 1

// WriteJSON renders the artifact to w.
func (f *FlightRecorder) WriteJSON(w io.Writer, reason string) error {
	if f == nil {
		return nil
	}
	evs := f.Events()
	d := flightDump{
		Version:  flightDumpVersion,
		Reason:   reason,
		Recorded: f.Len(),
		Resident: len(evs),
		Events:   evs,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}

// DumpFile writes the artifact to path (creating or truncating it) and
// counts the dump. Dumps are serialized so two triggers (an invariant
// violation racing a leak guard) cannot interleave one file.
func (f *FlightRecorder) DumpFile(path, reason string) error {
	if f == nil {
		return nil
	}
	f.dumpMu.Lock()
	defer f.dumpMu.Unlock()
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := f.WriteJSON(file, reason)
	cerr := file.Close()
	if werr != nil {
		return werr
	}
	if cerr != nil {
		return cerr
	}
	f.dumps.Inc()
	return nil
}

// ParseFlightDump reads an artifact back (tests, tooling).
func ParseFlightDump(r io.Reader) (reason string, events []FlightEvent, err error) {
	var d flightDump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return "", nil, err
	}
	if d.Version != flightDumpVersion {
		return "", nil, fmt.Errorf("obs: flight dump version %d, want %d", d.Version, flightDumpVersion)
	}
	return d.Reason, d.Events, nil
}

// recordTrace feeds a finished trace into the ring: one "trace" event
// plus one "span" event per recorded span.
func (f *FlightRecorder) recordTrace(t *Trace) {
	if f == nil || t == nil {
		return
	}
	f.Record("trace", t.Name, "", t.Start.UnixNano(), int64(t.Dur()))
	for _, s := range t.Spans() {
		f.Record("span", t.Name+"/"+s.Name, "", s.Start.UnixNano(), int64(s.Dur))
	}
}

// --- global recorder ---

// globalFlight is the process-wide recorder teardown hooks dump when a
// harness-level failure fires (harness.LeakGuard, sim invariant checks).
// It is global because those hooks have no path to the run's registry:
// a leaked goroutine is detected after the cluster under test is gone.
type globalFlight struct {
	f    *FlightRecorder
	path string
}

var globalFlightRec atomic.Pointer[globalFlight]

// SetGlobalFlightRecorder installs (or, with a nil recorder, clears) the
// process-wide flight recorder and the file its automatic dumps go to.
func SetGlobalFlightRecorder(f *FlightRecorder, dumpPath string) {
	if f == nil {
		globalFlightRec.Store(nil)
		return
	}
	globalFlightRec.Store(&globalFlight{f: f, path: dumpPath})
}

// GlobalFlightRecorder returns the installed recorder (nil when none),
// so any layer can record without plumbing.
func GlobalFlightRecorder() *FlightRecorder {
	if g := globalFlightRec.Load(); g != nil {
		return g.f
	}
	return nil
}

// DumpGlobalFlightRecorder writes the installed recorder's ring to its
// configured path. It reports the path and whether a dump happened (no
// recorder installed, or a write error, yields false).
func DumpGlobalFlightRecorder(reason string) (string, bool) {
	g := globalFlightRec.Load()
	if g == nil {
		return "", false
	}
	if err := g.f.DumpFile(g.path, reason); err != nil {
		return "", false
	}
	return g.path, true
}
