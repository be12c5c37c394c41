package main

import (
	"fmt"
	"runtime"
	"time"

	"kstreams/internal/obs"
	"kstreams/kafka"
	"kstreams/streams"
)

// The Fig 5.a application: keep-latest Reduce over 4 input partitions into
// 100 output partitions, commit interval 100 ms, one stream thread, on the
// testbed latency model. Every exactly-once commit writes a transaction
// marker to each output partition it touched.
const (
	inputTopic       = "bench-in"
	outputTopic      = "bench-out"
	inputPartitions  = 4
	outputPartitions = 100
	commitInterval   = 100 * time.Millisecond

	// backlogRecords is Phase A's preloaded input. One drain is under two
	// seconds of processing whose rate swings with every commit stall,
	// and a larger backlog costs heap (about 600 bytes a record across
	// three replicas), so Phase A runs in streamRounds rounds, each on a
	// fresh cluster, and the set-up, produce and drain metrics are
	// medians over the rounds. The last round's cluster goes on to
	// Phase B.
	backlogRecords = 400_000
	streamRounds   = 5
	// preloadBatch is the preload producer's batch: large, so writing
	// the backlog five times stays a small share of the run.
	preloadBatch = 2048
	// streamRate is Phase B's open-loop input rate. It sits below the
	// rate at which a 2-CPU host falls behind under exactly-once.
	streamRate = 20_000
	// warmup is the start of Phase B whose results are left out of the
	// latency percentiles: the generator and the commit cadence settle.
	warmup = time.Second
	// lateLimit and backlogLimit make Phase B invalid rather than slow:
	// a generator more than lateLimit behind schedule, or an application
	// backlog that grew by more than backlogLimit of input time, means
	// the run measured the generator or an overload.
	lateLimit    = time.Second
	backlogLimit = 500 * time.Millisecond
	completeWait = 60 * time.Second
)

func testbed(seed int64) kafka.ClusterConfig {
	return kafka.ClusterConfig{
		Brokers:               3,
		RPCLatency:            80 * time.Microsecond,
		Jitter:                20 * time.Microsecond,
		AppendLatency:         10 * time.Microsecond,
		TxnTimeout:            30 * time.Second,
		GroupRebalanceTimeout: 500 * time.Millisecond,
		Seed:                  seed,
	}
}

func keepLatest(_, v any) any { return v }

func newReduceApp(c *kafka.Cluster, g streams.Guarantee) (*streams.App, error) {
	b := streams.NewBuilder("perfbench")
	b.Stream(inputTopic, streams.StringSerde, streams.BytesSerde).
		GroupByKey().
		Reduce(keepLatest, "perfbench-reduce").
		ToStream().
		To(outputTopic)
	return streams.NewApp(b, streams.Config{
		Cluster:           c,
		Guarantee:         g,
		CommitInterval:    commitInterval,
		NumThreads:        1,
		SessionTimeout:    5 * time.Second,
		HeartbeatInterval: 200 * time.Millisecond,
		TxnTimeout:        30 * time.Second,
	})
}

// bootStreams starts a testbed cluster with the two topics.
func bootStreams(seed int64, tr *tracer) (*kafka.Cluster, error) {
	root := tr.begin("setup.boot", 0)
	defer tr.end(root, 0)
	var c *kafka.Cluster
	err := tr.call("kafka.NewCluster", root, func() (err error) {
		c, err = kafka.NewCluster(testbed(seed))
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, t := range []struct {
		name  string
		parts int32
	}{{inputTopic, inputPartitions}, {outputTopic, outputPartitions}} {
		if err := tr.call("Cluster.CreateTopic", root, func() error { return c.CreateTopic(t.name, t.parts, false) }); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// startApp starts the application and waits until it processed its first
// record, returning when that was seen.
func startApp(app *streams.App, tr *tracer) (time.Time, error) {
	root := tr.begin("setup.start", 0)
	defer tr.end(root, 0)
	if err := tr.call("App.Start", root, app.Start); err != nil {
		return time.Time{}, err
	}
	sp := tr.begin("await.first_processed", root)
	defer tr.end(sp, 0)
	deadline := time.Now().Add(completeWait)
	for app.Metrics().Processed == 0 {
		if err := app.Err(); err != nil {
			return time.Time{}, err
		}
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("no record processed within %v", completeWait)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return time.Now(), nil
}

// streamApp is the application with its reader: one read-committed
// consumer of every output partition, from offset 0, checking every result
// and timing those due after latFrom.
type streamApp struct {
	app    *streams.App
	reader *tail
	check  *resultCheck

	// Guarded by reader.mu.
	lat     []time.Duration
	latFrom int64 // unix ns; results of inputs due earlier carry no latency sample
	target  []uint64
}

func newStreamApp(c *kafka.Cluster, g streams.Guarantee, tr *tracer) (*streamApp, error) {
	app, err := newReduceApp(c, g)
	if err != nil {
		return nil, err
	}
	s := &streamApp{app: app, check: newResultCheck(streamKeys, g != streams.AtLeastOnce)}
	cons := c.NewConsumer(kafka.ConsumerConfig{Isolation: kafka.ReadCommitted})
	cons.Assign(outputTopic, partitionList(outputPartitions)...)
	s.reader = startTail(cons, tr, func(msgs []kafka.Message, now time.Time) {
		for _, m := range msgs {
			k := s.check.observe(m.Key, m.Value)
			if due, _, _ := readHeader(m.Value); k >= 0 && s.latFrom != 0 && due >= s.latFrom {
				s.lat = append(s.lat, now.Sub(time.Unix(0, due)))
			}
		}
	})
	return s, nil
}

// await blocks until the reader has seen every key reach its sequence in
// target: the complete result is visible to a read-committed reader.
func (s *streamApp) await(target []uint64) (time.Time, error) {
	s.reader.mu.Lock()
	s.target = target
	s.reader.mu.Unlock()
	return s.reader.await(func() bool {
		for k, want := range s.target {
			if s.check.lastSeq[k] < want {
				return false
			}
		}
		return true
	}, completeWait)
}

func (s *streamApp) measureLatencyFrom(t time.Time) {
	s.reader.mu.Lock()
	s.latFrom = t.UnixNano()
	s.reader.mu.Unlock()
}

// close stops the application and then its reader, and checks the
// reader's view against ref.
func (s *streamApp) close(ref reference) (failures, error) {
	s.app.Close()
	err := s.reader.close()
	s.check.finish(ref)
	return s.check.bad, err
}

// streamRound is one Phase A round on a fresh cluster.
type streamRound struct {
	c                    *kafka.Cluster
	sa                   *streamApp
	setup                time.Duration
	produceRPS, drainRPS float64
	drain                interval
	app                  streams.Metrics // over the drain
	bad                  failures
	collector            *commitCollector // traced runs only
}

// close shuts the round's application and cluster down, adding its
// reader's check against ref to the round's failures, and returns the
// commit traces collected on the round's cluster.
func (r *streamRound) close(ref reference) ([]*obs.Trace, error) {
	f, err := r.sa.close(ref)
	var traces []*obs.Trace
	if r.collector != nil {
		traces = r.collector.close()
	}
	r.c.Close()
	r.bad.merge(f)
	return traces, err
}

// runRound boots a cluster, writes the backlog closed-loop (excluded from
// set-up), starts the application, and drains the backlog until its
// complete result is visible. Each measured stretch starts right after a
// collection, so where the GC cycle falls does not vary from run to run.
func runRound(seed int64, g streams.Guarantee, backlog []kafka.Record, ref reference, tr *tracer) (*streamRound, error) {
	r := &streamRound{bad: failures{}}
	runtime.GC()
	t0 := time.Now()
	c, err := bootStreams(seed, tr)
	if err != nil {
		return nil, err
	}
	r.c = c
	boot := time.Since(t0)
	if tr != nil {
		r.collector = startCommitCollector(c.Obs())
	}

	pre, err := c.NewProducer(kafka.ProducerConfig{Idempotent: true, BatchRecords: preloadBatch})
	if err != nil {
		c.Close()
		return nil, err
	}
	root := tr.begin("preload", 0)
	t1 := time.Now()
	for i, rec := range backlog {
		sp := sampledSend(tr, root, i)
		err := pre.Send(inputTopic, rec)
		tr.end(sp, 1)
		if err != nil {
			r.bad.add(recordID(rec))
		}
	}
	sp := tr.begin("Producer.Flush", root)
	err = pre.Flush()
	tr.end(sp, len(backlog))
	tr.end(root, len(backlog))
	pre.Close()
	if err != nil {
		for _, rec := range backlog {
			r.bad.add(recordID(rec))
		}
	}
	r.produceRPS = float64(len(backlog)) / time.Since(t1).Seconds()

	if r.sa, err = newStreamApp(c, g, tr); err != nil {
		c.Close()
		return nil, err
	}
	runtime.GC()
	t2 := time.Now()
	first, err := startApp(r.sa.app, tr)
	if err != nil {
		_, _ = r.close(ref) // the start error is the one to report
		return nil, err
	}
	r.setup = boot + first.Sub(t2)
	pA, mA := takePoint(c.ObsSnapshot()), r.sa.app.Metrics()
	done, err := r.sa.await(ref.seq)
	if err != nil {
		_, _ = r.close(ref) // the drain error is the one to report
		return nil, fmt.Errorf("drain: %w", err)
	}
	r.drainRPS = float64(len(backlog)) / done.Sub(first).Seconds()
	pB, mB := takePoint(c.ObsSnapshot()), r.sa.app.Metrics()
	r.drain, r.app = interval{pA, pB}, appDelta(mA, mB)
	return r, nil
}

func appDelta(a, b streams.Metrics) streams.Metrics {
	return streams.Metrics{Processed: b.Processed - a.Processed, Emitted: b.Emitted - a.Emitted}
}

// runStreams is eos_p100 / alos_p100: Phase A's rounds, then on the last
// round's cluster Phase B, an open loop whose results a read-committed
// consumer times, then fresh consumers re-read the whole output.
func runStreams(o options, g streams.Guarantee) (*result, error) {
	res := newResult(o)
	tr := res.tracer
	in := newStreamInputs(o.seed)
	backlog := make([]kafka.Record, backlogRecords)
	for i := range backlog {
		backlog[i], _ = in.next(0)
	}
	refA := in.snapshot()
	bad := failures{}
	var commits []*obs.Trace

	// Phase A.
	var (
		rd                      *streamRound
		setups, produce, drains []float64
		windowA                 window
		appA                    streams.Metrics
	)
	for i := 0; i < streamRounds; i++ {
		var err error
		if rd, err = runRound(o.seed, g, backlog, refA, tr); err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		setups = append(setups, rd.setup.Seconds())
		produce = append(produce, rd.produceRPS)
		drains = append(drains, rd.drainRPS)
		windowA = append(windowA, rd.drain)
		appA.Processed += rd.app.Processed
		appA.Emitted += rd.app.Emitted
		if i < streamRounds-1 {
			traces, err := rd.close(refA)
			commits = append(commits, traces...)
			bad.merge(rd.bad)
			if err != nil {
				return nil, fmt.Errorf("round %d reader: %w", i, err)
			}
		}
	}
	backlog = nil
	c, sa := rd.c, rd.sa
	res.add("setup_s", "s", median(setups), len(setups))
	res.add("produce_rps", "rec/s", median(produce), backlogRecords*streamRounds)
	res.add("drain_rps", "rec/s", median(drains), backlogRecords*streamRounds)
	res.repeats["setup_s"], res.repeats["produce_rps"], res.repeats["drain_rps"] = setups, produce, drains
	defer c.Close()
	appClosed := false
	defer func() {
		if !appClosed {
			_, _ = sa.close(refA) // an earlier error is the one to report
		}
	}()

	// Phase B: open loop.
	gp, err := c.NewProducer(kafka.ProducerConfig{Idempotent: true, BatchRecords: streamRate / inputPartitions})
	if err != nil {
		return nil, err
	}
	nB := int64(streamRate * o.seconds)
	runtime.GC()
	pB, mB := takePoint(c.ObsSnapshot()), sa.app.Metrics()
	sa.measureLatencyFrom(time.Now().Add(warmup))
	gen := openLoop(gp, inputTopic, in, streamRate, nB, tr, func(sent int64) int64 {
		return sent - (sa.app.Metrics().Processed - backlogRecords)
	})
	gp.Close()
	bad.merge(gen.bad)
	bad.merge(rd.bad)
	res.late = gen.late
	if _, err := sa.await(in.snapshot().seq); err != nil {
		res.note("phase B: %v", err)
	}
	pC, mC := takePoint(c.ObsSnapshot()), sa.app.Metrics()
	appClosed = true
	f, err := sa.close(in.snapshot())
	if err != nil {
		return nil, fmt.Errorf("reader: %w", err)
	}
	bad.merge(f)
	res.add("latency_p50_ms", "ms", ms(percentile(sa.lat, 50)), len(sa.lat))
	res.add("latency_p99_ms", "ms", ms(percentile(sa.lat, 99)), len(sa.lat))

	// Catch-up: fresh read-committed consumers re-read the whole output.
	rates := make([]float64, 0, catchupPasses)
	for i := 0; i < catchupPasses; i++ {
		runtime.GC()
		cc := newResultCheck(streamKeys, g != streams.AtLeastOnce)
		d, err := readAll(c, outputTopic, outputPartitions, kafka.ReadCommitted, sa.check.records, tr, func(msgs []kafka.Message) {
			for _, m := range msgs {
				cc.observe(m.Key, m.Value)
			}
		})
		if err != nil {
			res.note("catch-up pass %d: %v", i, err)
		}
		cc.finish(in.snapshot())
		bad.merge(cc.bad)
		if err == nil {
			rates = append(rates, float64(sa.check.records)/d.Seconds())
		}
	}
	res.add("catchup_rps", "rec/s", median(rates), int(sa.check.records))
	res.repeats["catchup_rps"] = rates
	pD := takePoint(c.ObsSnapshot())
	runtime.GC()
	res.add("heap_live_mb", "MiB", heapLiveMB(), 0)

	// Validity of Phase B: a late generator or a growing backlog means
	// the run did not measure the system at this rate.
	res.attempted = backlogRecords + nB
	res.failed = int64(len(bad))
	if late := maxOf(gen.late); late > lateLimit {
		res.note("generator fell %v behind schedule", late)
		res.failed += nB
	}
	if grow := backlogGrowth(gen.backlog); float64(grow) > streamRate*backlogLimit.Seconds() {
		res.note("application backlog grew by %d records during phase B", grow)
		res.failed += nB
	}
	res.correct = len(bad) == 0
	res.failed = min(res.failed, res.attempted)

	if rd.collector != nil {
		commits = append(commits, rd.collector.close()...)
	}
	if tr != nil {
		tr.addCommitTraces(commits)
		windowB, windowC := window{{pB, pC}}, window{{pC, pD}}
		appB := appDelta(mB, mC)
		res.setLedger([]phase{
			{name: "A.drain", w: windowA, records: backlogRecords * streamRounds, app: appA},
			{name: "B.open_loop", w: windowB, records: nB, app: appB, late: gen.late},
			{name: "C.catchup", w: windowC},
			{name: "total", w: append(append(append(window{}, windowA...), windowB...), windowC...),
				records: backlogRecords*streamRounds + nB,
				app:     streams.Metrics{Processed: appA.Processed + appB.Processed, Emitted: appA.Emitted + appB.Emitted},
				late:    gen.late},
		}, commits)
	}
	return res, nil
}

// recordID names a streams input by key index and per-key sequence.
func recordID(r kafka.Record) (int32, uint64) {
	k, _ := keyIndex(r.Key)
	_, seq, _ := readHeader(r.Value)
	return int32(k), seq
}

// backlogGrowth compares the median application backlog over the last
// fifth of Phase B with that over the first fifth after warm-up. Commits
// make the backlog saw-tooth, hence medians of many samples.
func backlogGrowth(samples []int64) int64 {
	skip := int(warmup / backlogEvery)
	if len(samples) < skip+10 {
		return 0
	}
	s := samples[skip:]
	fifth := len(s) / 5
	return medianInt(s[len(s)-fifth:]) - medianInt(s[:fifth])
}

func medianInt(vs []int64) int64 {
	fs := make([]float64, len(vs))
	for i, v := range vs {
		fs[i] = float64(v)
	}
	return int64(median(fs))
}

func heapLiveMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
