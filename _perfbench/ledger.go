package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"kstreams/internal/obs"
	"kstreams/streams"
)

// phase is one measured window of a run together with the work it saw.
type phase struct {
	name    string
	w       window
	records int64           // input records the phase handled
	app     streams.Metrics // application counters over the phase (zero on log_p8)
	late    []time.Duration // generator lateness (open-loop phase only)
}

// rpcKinds are the transport RPC kinds the ledger breaks out: the data
// plane's two and the four the exactly-once commit adds.
var rpcKinds = []string{"Produce", "Fetch", "WriteTxnMarkers", "AddPartitionsToTxn", "EndTxn", "TxnOffsetCommit"}

// layerMetric is one per-layer number with its unit.
type layerMetric struct {
	value float64
	unit  string
}

// layerMetrics computes the per-layer ledger of one phase from the obs
// registry deltas, the runtime, the spans the benchmark recorded around
// its own calls, and the stream thread's commit traces.
func layerMetrics(ph phase, tr *tracer, commits []*obs.Trace) map[string]layerMetric {
	m := map[string]layerMetric{}
	set := func(name, unit string, v float64) { m[name] = layerMetric{v, unit} }
	w := ph.w
	wallS := w.wall().Seconds()
	perRecord := func(v float64) float64 {
		if ph.records == 0 {
			return 0
		}
		return v / float64(ph.records)
	}

	// internal/client, timed by the benchmark around its own calls.
	sends := durations(tr.within("Producer.Send", w))
	set("client.send_us.p50", "us", us(percentile(sends, 50)))
	set("client.send_us.p99", "us", us(percentile(sends, 99)))
	flushes := durations(tr.within("Producer.Flush", w))
	set("client.flush_ms.p50", "ms", ms(percentile(flushes, 50)))
	set("client.flush_ms.p99", "ms", ms(percentile(flushes, 99)))
	_, batch := w.hist("client_batch_records")
	set("client.batch_records.mean", "records", batch)
	set("client.retries", "count", float64(w.sumCounter("client_retry_attempts_total")))
	polls := tr.within("Consumer.Poll", w)
	set("client.poll_ms.p50", "ms", ms(percentile(durations(polls), 50)))
	var polled, empty int64
	for _, p := range polls {
		polled += int64(p.n)
		if p.n == 0 {
			empty++
		}
	}
	set("client.poll_records.mean", "records", ratio(float64(polled), float64(len(polls))))
	set("client.empty_poll_ratio", "ratio", ratio(float64(empty), float64(len(polls))))
	_, fetched := w.hist("client_fetch_records")
	set("client.fetch_records.mean", "records", fetched)

	// internal/transport.
	set("transport.rpcs_per_krecord", "count", 1000*perRecord(float64(w.sumCounter("transport_rpc_delivered_total"))))
	set("transport.failed", "count", float64(w.sumCounter("transport_rpc_failed_total")))
	for _, k := range rpcKinds {
		lbl := "{kind=" + k + "}"
		set("transport."+k+".count", "count", float64(w.counter("transport_rpc_delivered_total"+lbl)))
		_, mean := w.hist("transport_rpc_latency" + lbl)
		set("transport."+k+".mean_us", "us", mean/1e3)
	}

	// internal/broker: produce (append + high-watermark wait) and fetch.
	_, produce := w.hist("broker_produce_latency")
	_, appendLat := w.hist("broker_append_latency")
	set("broker.produce_ms.mean", "ms", produce/1e6)
	set("broker.append_ms.mean", "ms", appendLat/1e6)
	set("broker.replication_wait_ms.mean", "ms", (produce-appendLat)/1e6)
	replicaFetches, _ := w.hist("broker_fetch_latency{role=replica}")
	set("broker.replica_fetches_per_s", "1/s", ratio(float64(replicaFetches), wallS))
	_, consumerFetch := w.hist("broker_fetch_latency{role=consumer}")
	set("broker.fetch_consumer_ms.mean", "ms", consumerFetch/1e6)

	// internal/broker transaction coordinator.
	txns := float64(w.counter("txn_commits_total"))
	set("txn.commits", "count", txns)
	set("txn.markers_per_commit", "count", ratio(float64(w.sumCounter("txn_marker_partitions_total")), txns))
	for _, p := range []string{"prepare", "markers", "complete"} {
		_, mean := w.hist("txn_phase_latency{phase=" + p + "}")
		set("txn."+p+"_ms.mean", "ms", mean/1e6)
	}
	set("txn.markers_pct", "%", 100*ratio(w.histSum("txn_phase_latency{phase=markers}")/1e9, wallS))

	// internal/core stream thread.
	cycles, commitMean := w.hist("stream_commit_latency")
	set("core.commits", "count", float64(cycles))
	set("core.commit_ms.mean", "ms", commitMean/1e6)
	set("core.commit_pct", "%", 100*ratio(w.histSum("stream_commit_latency")/1e9, wallS))
	var commitDurs []time.Duration
	perKind := map[string]time.Duration{}
	for _, c := range commits {
		if !w.contains(c.Start) {
			continue
		}
		commitDurs = append(commitDurs, c.Dur())
		for _, s := range c.Spans() {
			perKind[s.Name] += s.Dur
		}
	}
	set("core.commit_ms.p99", "ms", ms(percentile(commitDurs, 99)))
	for _, k := range rpcKinds {
		set("core.commit_rpc_ms."+k, "ms", ratio(ms(perKind[k]), float64(len(commitDurs))))
	}
	set("core.commit_traces_lost", "count", float64(max(0, cycles-int64(len(commitDurs)))))

	// internal/store caching layer: useful output per input.
	set("store.emit_ratio", "ratio", ratio(float64(ph.app.Emitted), float64(ph.app.Processed)))

	// Go runtime.
	cpu, allocs, gcs, pause := w.runtimeDelta()
	set("runtime.cpu_us_per_record", "us", us(time.Duration(perRecord(float64(cpu)))))
	set("runtime.allocs_per_record", "count", perRecord(float64(allocs)))
	set("runtime.gc_cycles", "count", float64(gcs))
	set("runtime.gc_pause_ms", "ms", ms(pause))

	// The generator: validity only.
	set("gen.late_ms.p99", "ms", ms(percentile(ph.late, 99)))
	set("gen.late_ms.max", "ms", ms(maxOf(ph.late)))
	return m
}

func durations(spans []span) []time.Duration {
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur()
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeLedger prints the per-layer table: one row per metric, one column
// per phase.
func writeLedger(w io.Writer, phases []string, cols []map[string]layerMetric) {
	names := make([]string, 0, len(cols[0]))
	for n := range cols[0] {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-34s %-8s", "layer metric", "unit")
	for _, p := range phases {
		fmt.Fprintf(w, " %14s", p)
	}
	fmt.Fprintln(w)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %-8s", n, cols[0][n].unit)
		for _, c := range cols {
			fmt.Fprintf(w, " %14.4f", c[n].value)
		}
		fmt.Fprintln(w)
	}
}
