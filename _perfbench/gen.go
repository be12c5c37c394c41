package main

import (
	"time"

	"kstreams/internal/workload"
	"kstreams/kafka"
)

// reference is what the keep-latest output must end at: per key, the
// last input's per-key sequence and value.
type reference struct {
	seq   []uint64
	final [][]byte
}

// streamInputs generates the streams workloads' input from the seed and
// keeps the reference for the inputs so far. A value carries its due time
// and its per-key sequence.
type streamInputs struct {
	gen *workload.Stream
	ref reference
}

const (
	streamKeys       = 1000
	streamValueBytes = 64
)

func newStreamInputs(seed int64) *streamInputs {
	return &streamInputs{
		gen: workload.NewStream(seed, workload.StreamSpec{Keys: streamKeys, ValueBytes: streamValueBytes - headerBytes}),
		ref: reference{seq: make([]uint64, streamKeys), final: make([][]byte, streamKeys)},
	}
}

// next returns the next input stamped with due (unix ns; 0 for backlog
// records, which carry no latency) and its key index.
func (s *streamInputs) next(due int64) (rec kafka.Record, k int) {
	key, payload, ts := s.gen.Next()
	k, _ = keyIndex(key)
	s.ref.seq[k]++
	v := make([]byte, headerBytes+len(payload))
	putHeader(v, due, s.ref.seq[k])
	copy(v[headerBytes:], payload)
	s.ref.final[k] = v
	return kafka.Record{Key: key, Value: v, Timestamp: ts}, k
}

// snapshot returns a copy of the reference for the inputs so far.
func (s *streamInputs) snapshot() reference {
	return reference{seq: append([]uint64(nil), s.ref.seq...), final: append([][]byte(nil), s.ref.final...)}
}

// genResult is what the open-loop generator observed.
type genResult struct {
	start   time.Time
	sent    int64
	late    []time.Duration // per record: send time − due time
	backlog []int64         // application backlog, sampled every backlogEvery
	bad     failures        // records whose Send or Flush failed
}

const backlogEvery = 100 * time.Millisecond

// openLoop sends n records at rate records/s on a fixed schedule that does
// not slow when the system does: record i is due at start + i/rate and is
// stamped with that due time, so a stall is charged to every record that
// waited behind it. Each pass sends every record due so far and flushes
// once; the producer's batch limit is set from the rate (see
// runStreams) so a Send never flushes synchronously on its own. backlog
// reports the application's unprocessed input given the records sent.
func openLoop(p *kafka.Producer, topic string, in *streamInputs, rate float64, n int64, tr *tracer, backlog func(sent int64) int64) genResult {
	res := genResult{late: make([]time.Duration, 0, n), bad: failures{}}
	interval := float64(time.Second) / rate
	var pending []recID // records sent since the last flush
	res.start = time.Now()
	nextSample := res.start
	for res.sent < n {
		now := time.Now()
		if !now.Before(nextSample) {
			res.backlog = append(res.backlog, backlog(res.sent))
			nextSample = nextSample.Add(backlogEvery)
		}
		due := int64(float64(now.Sub(res.start))/interval) + 1
		if due > n {
			due = n
		}
		if due <= res.sent {
			time.Sleep(res.start.Add(time.Duration(float64(res.sent) * interval)).Sub(now))
			continue
		}
		tick := tr.begin("gen.tick", 0)
		for ; res.sent < due; res.sent++ {
			at := res.start.Add(time.Duration(float64(res.sent) * interval))
			rec, k := in.next(at.UnixNano())
			_, seq, _ := readHeader(rec.Value)
			res.late = append(res.late, now.Sub(at))
			sp := tr.begin("Producer.Send", tick)
			err := p.Send(topic, rec)
			tr.end(sp, 1)
			if err != nil {
				res.bad.add(int32(k), seq)
				continue
			}
			pending = append(pending, recID{int32(k), seq})
		}
		sp := tr.begin("Producer.Flush", tick)
		err := p.Flush()
		tr.end(sp, len(pending))
		tr.end(tick, 0)
		if err != nil {
			for _, id := range pending {
				res.bad[id] = struct{}{}
			}
		}
		pending = pending[:0]
	}
	return res
}
