// Command perfbench is the repository's end-to-end benchmark: the paper's
// exactly-once vs at-least-once streams pipeline (Fig 5.a at 100 output
// partitions) and the bare log, each checked against a reference, with a
// per-layer ledger from a separate traced run. README.md describes the
// workloads, metrics and how the layers should move them.
//
//	perfbench --workload eos_p100|alos_p100|log_p8|all --seed N --seconds S --trace 0|1
//
// Every run prints each metric by name with its unit and, as its last
// line, one JSON object {"correct","attempted","failed","metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// It exits 1 when an output fails its reference check or the run is
// invalid, 2 when the run could not be completed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"kstreams/internal/obs"
	"kstreams/streams"
)

const (
	// catchupPasses fresh-consumer reads per streams run; catchup_rps is
	// their median.
	catchupPasses = 5
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

var workloads = []string{"eos_p100", "alos_p100", "log_p8"}

// perLayer names the per-layer metrics the traced run reports in its JSON
// line, in BENCHMARK.json order. The ledger holds more (times of layers a
// workload does not use, which are structurally zero there); it is printed
// and written beside the spans.
var perLayer = []string{
	"client.send_us.p50", "client.send_us.p99", "client.flush_ms.p50", "client.flush_ms.p99",
	"client.batch_records.mean", "client.retries",
	"client.poll_ms.p50", "client.poll_records.mean", "client.empty_poll_ratio", "client.fetch_records.mean",
	"transport.rpcs_per_krecord", "transport.failed",
	"transport.Produce.count", "transport.Produce.mean_us", "transport.Fetch.count", "transport.Fetch.mean_us",
	"transport.WriteTxnMarkers.count", "transport.AddPartitionsToTxn.count", "transport.EndTxn.count", "transport.TxnOffsetCommit.count",
	"broker.produce_ms.mean", "broker.append_ms.mean", "broker.replication_wait_ms.mean",
	"broker.replica_fetches_per_s", "broker.fetch_consumer_ms.mean",
	"txn.commits", "txn.markers_per_commit", "txn.markers_pct",
	"core.commits", "core.commit_pct",
	"store.emit_ratio",
	"runtime.cpu_us_per_record", "runtime.allocs_per_record", "runtime.gc_cycles", "runtime.gc_pause_ms",
	"trace.overhead_pct",
}

// endToEnd names the end-to-end metrics, in BENCHMARK.json order.
var endToEnd = []string{"setup_s", "drain_rps", "latency_p50_ms", "latency_p99_ms", "produce_rps", "catchup_rps", "heap_live_mb"}

// overheadMetric is the end-to-end metric trace.overhead_pct compares
// between traced and untraced runs: the one the traced calls sit on.
var overheadMetric = map[string]string{"eos_p100": "latency_p50_ms", "alos_p100": "latency_p50_ms", "log_p8": "produce_rps"}

type e2eMetric struct {
	value   float64
	unit    string
	samples int
}

// result is one workload run.
type result struct {
	workload          string
	tracer            *tracer
	e2e               map[string]e2eMetric
	attempted, failed int64
	correct           bool
	notes             []string
	late              []time.Duration      // open-loop generator lateness (streams only)
	repeats           map[string][]float64 // the repeats a median metric was taken over

	phases []string
	ledger []map[string]layerMetric // one per phase; the last is the whole run
	self   []layerRow
	wall   time.Duration
}

func newResult(o options) *result {
	r := &result{workload: o.workload, e2e: map[string]e2eMetric{}, repeats: map[string][]float64{}}
	if o.trace {
		r.tracer = newTracer()
	}
	return r
}

func (r *result) add(name, unit string, v float64, samples int) {
	r.e2e[name] = e2eMetric{v, unit, samples}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) setLedger(phases []phase, commits []*obs.Trace) {
	for _, ph := range phases {
		r.phases = append(r.phases, ph.name)
		r.ledger = append(r.ledger, layerMetrics(ph, r.tracer, commits))
	}
	r.wall = time.Since(r.tracer.origin)
	r.self = selfTimes(r.tracer.spans)
}

func run(o options) (*result, error) {
	switch o.workload {
	case "eos_p100":
		return runStreams(o, streams.ExactlyOnce)
	case "alos_p100":
		return runStreams(o, streams.AtLeastOnce)
	case "log_p8":
		return runLog(o)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s, or all)", o.workload, strings.Join(workloads, ", "))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "eos_p100, alos_p100, log_p8, or all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "measured length: Phase B seconds on the streams workloads; 100k records a second on log_p8")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for untraced results and traces")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloads
	}
	out := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, name := range names {
		wo := o
		wo.workload = name
		r, err := runWorkload(wo)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", name, err)
			os.Exit(2)
		}
		out.Correct = out.Correct && r.correct
		out.Attempted += r.attempted
		out.Failed += r.failed
		prefix := ""
		if len(names) > 1 {
			prefix = name + "/"
		}
		for k, v := range r.metrics(o.trace) {
			out.Metrics[prefix+k] = v
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !out.Correct || out.Failed > 0 {
		os.Exit(1)
	}
}

// runWorkload runs one workload, prints its report, and, for a traced run,
// measures the tracing overhead and writes the spans and the ledger.
func runWorkload(o options) (*result, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	r, err := run(o)
	if err != nil {
		return nil, err
	}
	history := filepath.Join(o.out, fmt.Sprintf("untraced-%s-%ds.jsonl", o.workload, o.seconds))
	if !o.trace {
		if err := appendHistory(history, r); err != nil {
			return nil, err
		}
	} else {
		ref, err := untracedReference(history, o)
		if err != nil {
			return nil, err
		}
		key := overheadMetric[o.workload]
		got := r.e2e[key].value
		overhead := 100 * ratio(got-ref, ref)
		if key == "produce_rps" { // a rate: tracing shows as a drop
			overhead = 100 * ratio(ref-got, ref)
		}
		r.ledger[len(r.ledger)-1]["trace.overhead_pct"] = layerMetric{overhead, "%"}
		dir := filepath.Join(o.out, "trace")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := r.tracer.writeSpans(filepath.Join(dir, o.workload+".spans.tsv.gz")); err != nil {
			return nil, err
		}
		if err := writeFile(filepath.Join(dir, o.workload+".layers.txt"), r.writeLayers); err != nil {
			return nil, err
		}
	}
	r.print(o)
	return r, nil
}

// untracedReference is the median of the end-to-end metric the overhead
// is taken on over this checkout's untraced runs of the workload; with
// none on record it makes one untraced run now.
func untracedReference(path string, o options) (float64, error) {
	key := overheadMetric[o.workload]
	var vals []float64
	if f, err := os.Open(path); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var m map[string]float64
			if json.Unmarshal(sc.Bytes(), &m) == nil && m[key] > 0 {
				vals = append(vals, m[key])
			}
		}
		f.Close()
	}
	if len(vals) > 0 {
		return median(vals), nil
	}
	u := o
	u.trace = false
	r, err := run(u)
	if err != nil {
		return 0, fmt.Errorf("untraced reference run: %w", err)
	}
	if err := appendHistory(path, r); err != nil {
		return 0, err
	}
	return r.e2e[key].value, nil
}

func appendHistory(path string, r *result) error {
	if !r.correct || r.failed > 0 {
		return nil
	}
	m := map[string]float64{}
	for k, v := range r.e2e {
		m[k] = v.value
	}
	line, err := json.Marshal(m)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeFile(path string, fn func(w *bufio.Writer)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fn(w)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (r *result) writeLayers(w *bufio.Writer) {
	fmt.Fprintf(w, "per-layer ledger, %s\n", r.workload)
	writeLedger(w, r.phases, r.ledger)
	fmt.Fprintf(w, "\nself time by span over the whole run (%.0f ms; concurrent spans overlap)\n", ms(r.wall))
	writeSelfTimes(w, r.self, r.wall)
}

// metrics is the JSON line's metric set.
func (r *result) metrics(traced bool) map[string]jsonMetric {
	out := map[string]jsonMetric{}
	if traced {
		total := r.ledger[len(r.ledger)-1]
		for _, n := range perLayer {
			out[n] = jsonMetric{total[n].value, total[n].unit}
		}
		return out
	}
	for _, n := range endToEnd {
		out[n] = jsonMetric{r.e2e[n].value, r.e2e[n].unit}
	}
	return out
}

func (r *result) print(o options) {
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "== %s seed=%d seconds=%d trace=%v\n", r.workload, o.seed, o.seconds, o.trace)
	for _, n := range endToEnd {
		m := r.e2e[n]
		fmt.Fprintf(w, "%-16s %14.4f %-6s", n, m.value, m.unit)
		if m.samples > 0 {
			fmt.Fprintf(w, " (n=%d)", m.samples)
		}
		if rs := r.repeats[n]; len(rs) > 0 {
			fmt.Fprintf(w, " median of %.4g", rs)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-16s %14.6f %-6s (%d of %d input records)\n", "failed_ratio", ratio(float64(r.failed), float64(r.attempted)), "ratio", r.failed, r.attempted)
	if len(r.late) > 0 {
		fmt.Fprintf(w, "%-16s p99 %.3f ms, max %.3f ms (n=%d)\n", "gen.late_ms", ms(percentile(r.late, 99)), ms(maxOf(r.late)), len(r.late))
	}
	notes := append([]string(nil), r.notes...)
	sort.Strings(notes)
	for _, n := range notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	if o.trace {
		r.writeLayers(w)
	}
}
