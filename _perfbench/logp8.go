package main

import (
	"fmt"
	"runtime"
	"time"

	"kstreams/internal/workload"
	"kstreams/kafka"
)

// log_p8: the bare log. One idempotent acks=all producer, closed loop,
// writes 8 partitions with zero injected latency while one consumer tails
// them; then a fresh consumer reads the whole log from offset 0.
const (
	logTopic      = "bench-log"
	logPartitions = 8
	logBatch      = 256
	logValueBytes = 100
	// logRecordsPerSecond scales each round's record count with
	// --seconds, capped at logMaxRecords so each partition's decoded
	// batches (~150 bytes a record) stay inside the WAL's 32 MiB per-log
	// cache: the catch-up read measures the fetch path, not eviction.
	logRecordsPerSecond = 30_000
	logMaxRecords       = 1_200_000
	// A round writes for about a second, so the top 1% of its
	// latencies comes from a few stalls and its p99 swings by a third
	// from round to round: the median over many rounds is what holds
	// still. One catch-up pass a round leaves time for more rounds.
	logRounds        = 20
	logCatchupPasses = 1
	// Set-up here is about a millisecond, so many trials are cheap and
	// keep their median steady.
	logSetupsPerRound = 4
)

func logCluster(seed int64) kafka.ClusterConfig {
	return kafka.ClusterConfig{Brokers: 3, TxnTimeout: 30 * time.Second, Seed: seed}
}

// logInputs is one round's records, generated from the seed before the
// clock starts so the closed loop times the producer, not the generator:
// round-robin over the partitions, each value carrying its per-partition
// sequence. The send time is stamped into a value just before its Send.
type logInputs struct {
	parts    []int32
	recs     []kafka.Record
	produced []uint64 // records per partition
}

func newLogInputs(seed, n int64) *logInputs {
	gen := workload.NewStream(seed, workload.StreamSpec{Keys: 1 << 16, ValueBytes: logValueBytes - headerBytes})
	l := &logInputs{parts: make([]int32, n), recs: make([]kafka.Record, n), produced: make([]uint64, logPartitions)}
	for i := range l.recs {
		key, payload, ts := gen.Next()
		p := int32(i % logPartitions)
		v := make([]byte, headerBytes+len(payload))
		putHeader(v, 0, l.produced[p])
		copy(v[headerBytes:], payload)
		l.produced[p]++
		l.parts[i], l.recs[i] = p, kafka.Record{Key: key, Value: v, Timestamp: ts}
	}
	return l
}

// send stamps record i with the current time and sends it.
func (l *logInputs) send(p *kafka.Producer, i int) error {
	setStamp(l.recs[i].Value, time.Now().UnixNano())
	return p.SendTo(logTopic, l.parts[i], l.recs[i])
}

// logSetup is one set-up trial: cluster boot, topic creation, and one
// record produced and read back.
func logSetup(seed int64, tr *tracer) (time.Duration, error) {
	root := tr.begin("setup", 0)
	defer tr.end(root, 0)
	t0 := time.Now()
	var c *kafka.Cluster
	err := tr.call("kafka.NewCluster", root, func() (err error) {
		c, err = kafka.NewCluster(logCluster(seed))
		return err
	})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if err := tr.call("Cluster.CreateTopic", root, func() error { return c.CreateTopic(logTopic, logPartitions, false) }); err != nil {
		return 0, err
	}
	p, err := c.NewProducer(kafka.ProducerConfig{Idempotent: true, BatchRecords: logBatch})
	if err != nil {
		return 0, err
	}
	defer p.Close()
	in := newLogInputs(seed, 1)
	if err := in.send(p, 0); err != nil {
		return 0, err
	}
	if err := p.Flush(); err != nil {
		return 0, err
	}
	cons := c.NewConsumer(kafka.ConsumerConfig{})
	defer cons.Close()
	cons.Assign(logTopic, in.parts[0])
	deadline := time.Now().Add(completeWait)
	for {
		msgs, err := poll(cons, tr)
		if err != nil {
			return 0, err
		}
		if len(msgs) > 0 {
			return time.Since(t0), nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("set-up record not read back within %v", completeWait)
		}
		time.Sleep(emptyPollSleep)
	}
}

// runLog repeats log_p8's round on a fresh cluster logRounds times and
// reports each metric's median over the rounds: a round is a few seconds,
// and one slow round on a shared host moves a median of many far less
// than it would move a single long run.
func runLog(o options) (*result, error) {
	res := newResult(o)
	tr := res.tracer
	n := min(int64(logRecordsPerSecond*o.seconds), logMaxRecords)
	var produce, drain, p50, p99, catchup []float64
	var write, read window
	var samples int
	var setups []float64
	for r := 0; r < logRounds; r++ {
		// Set-up trials run before every round, so they sample the host
		// across the whole run, each batch after a collection so the last
		// round's garbage does not slow it.
		runtime.GC()
		for i := 0; i < logSetupsPerRound; i++ {
			d, err := logSetup(o.seed, tr)
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, d.Seconds())
		}
		lr, err := logRound(o.seed*logRounds+int64(r), n, tr, r == logRounds-1)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		for _, note := range lr.notes {
			res.note("round %d: %s", r, note)
		}
		produce = append(produce, lr.produceRPS)
		drain = append(drain, lr.drainRPS)
		p50 = append(p50, ms(percentile(lr.lat, 50)))
		p99 = append(p99, ms(percentile(lr.lat, 99)))
		samples += len(lr.lat)
		catchup = append(catchup, lr.catchup...)
		write = append(write, lr.write)
		read = append(read, lr.read)
		res.failed += int64(lr.bad)
		if lr.heapMB > 0 {
			res.add("heap_live_mb", "MiB", lr.heapMB, 0)
		}
	}
	res.add("setup_s", "s", median(setups), len(setups))
	res.add("produce_rps", "rec/s", median(produce), int(n)*logRounds)
	res.add("drain_rps", "rec/s", median(drain), int(n)*logRounds)
	res.add("latency_p50_ms", "ms", median(p50), samples)
	res.add("latency_p99_ms", "ms", median(p99), samples)
	res.add("catchup_rps", "rec/s", median(catchup), len(catchup))
	res.repeats["catchup_rps"] = catchup
	res.repeats["produce_rps"] = produce
	res.repeats["latency_p99_ms"] = p99
	res.attempted = n * logRounds
	res.correct = res.failed == 0
	res.failed = min(res.failed, res.attempted)
	if tr != nil {
		both := append(append(window{}, write...), read...)
		res.setLedger([]phase{
			{name: "A.write", w: write, records: res.attempted},
			{name: "B.catchup", w: read},
			{name: "total", w: both, records: res.attempted},
		}, nil)
	}
	return res, nil
}

type logRoundResult struct {
	produceRPS, drainRPS float64
	lat                  []time.Duration // tail reader: send to receipt
	catchup              []float64       // rec/s of each catch-up pass
	write, read          interval
	bad                  int     // records failing a reader's check
	heapMB               float64 // live heap at the round's end, when asked for
	notes                []string
}

// logRound is one round on a fresh cluster: the producer writes n records
// while the tail reader follows, then fresh consumers re-read the log.
func logRound(seed, n int64, tr *tracer, measureHeap bool) (lr logRoundResult, err error) {
	c, err := kafka.NewCluster(logCluster(seed))
	if err != nil {
		return lr, err
	}
	defer c.Close()
	if err := c.CreateTopic(logTopic, logPartitions, false); err != nil {
		return lr, err
	}
	in := newLogInputs(seed, n)
	bad := failures{}

	// The tail reader, writes beside reads.
	check := newLogCheck(logPartitions)
	lr.lat = make([]time.Duration, 0, n)
	cons := c.NewConsumer(kafka.ConsumerConfig{})
	cons.Assign(logTopic, partitionList(logPartitions)...)
	reader := startTail(cons, tr, func(msgs []kafka.Message, now time.Time) {
		for _, m := range msgs {
			check.observe(m.Partition, m.Value)
			if sent, _, ok := readHeader(m.Value); ok {
				lr.lat = append(lr.lat, now.Sub(time.Unix(0, sent)))
			}
		}
	})
	readerClosed := false
	defer func() {
		if !readerClosed {
			reader.close()
		}
	}()

	p, err := c.NewProducer(kafka.ProducerConfig{Idempotent: true, BatchRecords: logBatch})
	if err != nil {
		return lr, err
	}
	defer p.Close()
	runtime.GC()
	pA := takePoint(c.ObsSnapshot())
	root := tr.begin("produce", 0)
	// A failed Send fails its record; a failed final Flush fails the
	// round. The readers' checks name any other record lost.
	for i := range in.recs {
		sp := sampledSend(tr, root, i)
		err := in.send(p, i)
		tr.end(sp, 1)
		if err != nil {
			lr.notes = append(lr.notes, fmt.Sprintf("send: %v", err))
			_, seq, _ := readHeader(in.recs[i].Value)
			bad.add(in.parts[i], seq)
		}
	}
	sp := tr.begin("Producer.Flush", root)
	if err := p.Flush(); err != nil {
		lr.notes = append(lr.notes, fmt.Sprintf("flush: %v", err))
		for i, rec := range in.recs {
			_, seq, _ := readHeader(rec.Value)
			bad.add(in.parts[i], seq)
		}
	}
	tr.end(sp, 0)
	tr.end(root, int(n))
	lr.produceRPS = float64(n) / time.Since(pA.at).Seconds()
	doneAt, err := reader.await(func() bool { return check.done(in.produced) }, completeWait)
	if err != nil {
		lr.notes = append(lr.notes, fmt.Sprintf("tail: %v", err))
	} else {
		lr.drainRPS = float64(n) / doneAt.Sub(pA.at).Seconds()
	}
	pB := takePoint(c.ObsSnapshot())
	readerClosed = true
	if err := reader.close(); err != nil {
		return lr, fmt.Errorf("reader: %w", err)
	}
	check.finish(in.produced)
	bad.merge(check.bad)

	for i := 0; i < logCatchupPasses; i++ {
		runtime.GC()
		cc := newLogCheck(logPartitions)
		d, err := readAll(c, logTopic, logPartitions, kafka.ReadUncommitted, n, tr, func(msgs []kafka.Message) {
			for _, m := range msgs {
				cc.observe(m.Partition, m.Value)
			}
		})
		if err != nil {
			lr.notes = append(lr.notes, fmt.Sprintf("catch-up pass %d: %v", i, err))
		}
		cc.finish(in.produced)
		bad.merge(cc.bad)
		if err == nil {
			lr.catchup = append(lr.catchup, float64(n)/d.Seconds())
		}
	}
	pC := takePoint(c.ObsSnapshot())
	lr.write, lr.read = interval{pA, pB}, interval{pB, pC}
	lr.bad = len(bad)
	if measureHeap {
		runtime.GC()
		lr.heapMB = heapLiveMB()
	}
	return lr, nil
}
