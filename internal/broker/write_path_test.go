package broker

import (
	"testing"
	"time"

	"kstreams/internal/obs"
	"kstreams/internal/protocol"
	"kstreams/internal/storage"
	"kstreams/internal/transport"
)

// newTestBroker starts broker 1 alone on a fresh fabric. Nothing else is
// registered: the controller and broker 2 are unreachable, so broker 2
// never fetches unless a test replays its replica fetch by hand.
func newTestBroker(t *testing.T, produceTimeout time.Duration) *Broker {
	t.Helper()
	net := transport.New(transport.Options{})
	b := New(net, Config{
		ID:             1,
		ControllerID:   0,
		Backend:        storage.NewMem(),
		ProduceTimeout: produceTimeout,
	})
	t.Cleanup(b.Stop)
	return b
}

// placePartition installs tp on broker 1 with the given leader and ISR;
// broker 2 is the other replica.
func placePartition(t *testing.T, b *Broker, tp protocol.TopicPartition, leader int32, isr []int32) {
	t.Helper()
	resp := b.handleLeaderAndISR(&protocol.LeaderAndISRRequest{
		TP: tp, Leader: leader, Replicas: []int32{1, 2}, ISR: isr, IsNew: true,
	})
	if resp.Err != protocol.ErrNone {
		t.Fatalf("leaderAndISR %v: %v", tp, resp.Err)
	}
}

// openTxn appends one transactional record for pid to tp (acks=leader, so
// it returns before any follower has fetched).
func openTxn(t *testing.T, b *Broker, tp protocol.TopicPartition, pid int64) {
	t.Helper()
	resp := b.handleProduce(&protocol.ProduceRequest{
		Acks: protocol.AcksLeader,
		Entries: []protocol.ProduceEntry{{TP: tp, Batch: &protocol.RecordBatch{
			ProducerID: pid, BaseSequence: 0, Transactional: true,
			Records: []protocol.Record{{Key: []byte("k")}},
		}}},
	})
	if err := resp.Results[0].Err; err != protocol.ErrNone {
		t.Fatalf("open txn on %v: %v", tp, err)
	}
}

func endOffset(b *Broker, tp protocol.TopicPartition) int64 {
	return b.partition(tp).log.EndOffset()
}

// waitUntil polls cond; the bound only turns a hang into a failure.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWriteTxnMarkersAppendsAllBeforeWaiting pins the marker write path:
// every marker of a request is on its log before any replication wait
// completes, and one replica fetch covering all partitions releases the
// whole request.
func TestWriteTxnMarkersAppendsAllBeforeWaiting(t *testing.T) {
	b := newTestBroker(t, time.Minute)
	const n, pid = 6, 9
	tps := make([]protocol.TopicPartition, n)
	for i := range tps {
		tps[i] = protocol.TopicPartition{Topic: "out", Partition: int32(i)}
		placePartition(t, b, tps[i], 1, []int32{1, 2})
		openTxn(t, b, tps[i], pid) // data at offset 0
	}

	done := make(chan *protocol.WriteTxnMarkersResponse, 1)
	go func() {
		done <- b.handleWriteTxnMarkers(&protocol.WriteTxnMarkersRequest{
			ProducerID: pid, Type: protocol.MarkerCommit, Partitions: tps,
		})
	}()
	// Broker 2 has not fetched, so no high watermark can move and the
	// request cannot complete; yet every marker (offset 1) must land.
	waitUntil(t, "every marker is appended", func() bool {
		for _, tp := range tps {
			if endOffset(b, tp) < 2 {
				return false
			}
		}
		return true
	})
	select {
	case resp := <-done:
		t.Fatalf("request completed before any replica fetch: %+v", resp.Results)
	default:
	}

	fetch := &protocol.FetchRequest{ReplicaID: 2, MaxBytes: 1 << 20}
	for _, tp := range tps {
		fetch.Entries = append(fetch.Entries, protocol.FetchEntry{TP: tp, Offset: 2})
	}
	b.handleFetch(fetch)

	var resp *protocol.WriteTxnMarkersResponse
	select {
	case resp = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("one replica fetch covering every partition did not release the request")
	}
	if len(resp.Results) != n {
		t.Fatalf("results = %d, want %d", len(resp.Results), n)
	}
	for i, res := range resp.Results {
		if res.TP != tps[i] || res.Err != protocol.ErrNone || res.BaseOffset != 1 {
			t.Fatalf("result %d = %+v, want %v committed at offset 1", i, res, tps[i])
		}
	}
}

// TestWriteTxnMarkersResultsKeepRequestOrder mixes every pre-check
// outcome with real appends and checks each answer lands on its own
// position.
func TestWriteTxnMarkersResultsKeepRequestOrder(t *testing.T) {
	b := newTestBroker(t, time.Minute)
	const pid = 9
	tp := func(i int32) protocol.TopicPartition { return protocol.TopicPartition{Topic: "out", Partition: i} }
	real1, unknown, followed, idle, real2 := tp(0), tp(1), tp(2), tp(3), tp(4)
	for _, p := range []protocol.TopicPartition{real1, idle, real2} {
		placePartition(t, b, p, 1, []int32{1}) // sole replica: commits on append
	}
	placePartition(t, b, followed, 2, []int32{1, 2})
	openTxn(t, b, real1, pid)
	openTxn(t, b, real2, pid)

	req := &protocol.WriteTxnMarkersRequest{
		ProducerID: pid, Type: protocol.MarkerAbort,
		Partitions: []protocol.TopicPartition{real1, unknown, followed, idle, real2},
	}
	resp := b.handleWriteTxnMarkers(req)
	want := []protocol.ErrorCode{
		protocol.ErrNone, protocol.ErrUnknownTopicOrPartition, protocol.ErrNotLeader,
		protocol.ErrNone, protocol.ErrNone,
	}
	if len(resp.Results) != len(req.Partitions) {
		t.Fatalf("results = %d, want %d", len(resp.Results), len(req.Partitions))
	}
	for i, res := range resp.Results {
		if res.TP != req.Partitions[i] || res.Err != want[i] {
			t.Fatalf("result %d = %+v, want %v with %v", i, res, req.Partitions[i], want[i])
		}
	}
	for _, p := range []protocol.TopicPartition{real1, real2} {
		if got := endOffset(b, p); got != 2 {
			t.Fatalf("%v end offset = %d, want 2 (data + marker)", p, got)
		}
	}
	if got := endOffset(b, idle); got != 0 {
		t.Fatalf("idempotent ack wrote to %v: end offset %d", idle, got)
	}
}

// TestProduceSharesOneReplicationDeadline checks that a multi-partition
// request whose follower has stalled times out after about one
// ProduceTimeout, not one per partition, and that each timed-out wait is
// counted and recorded as a flight event.
func TestProduceSharesOneReplicationDeadline(t *testing.T) {
	const n, timeout = 8, 300 * time.Millisecond
	b := newTestBroker(t, timeout)
	flight := obs.NewFlightRecorder(64)
	b.net.Obs().SetFlightRecorder(flight)
	req := &protocol.ProduceRequest{Acks: protocol.AcksAll}
	for i := int32(0); i < n; i++ {
		tp := protocol.TopicPartition{Topic: "in", Partition: i}
		placePartition(t, b, tp, 1, []int32{1, 2})
		req.Entries = append(req.Entries, protocol.ProduceEntry{TP: tp, Batch: &protocol.RecordBatch{
			ProducerID: protocol.NoProducerID, BaseSequence: protocol.NoSequence,
			Records: []protocol.Record{{Key: []byte("k")}},
		}})
	}

	start := time.Now()
	resp := b.handleProduce(req)
	elapsed := time.Since(start)

	for i, res := range resp.Results {
		if res.TP != req.Entries[i].TP || res.Err != protocol.ErrRequestTimedOut {
			t.Fatalf("result %d = %+v, want timed out", i, res)
		}
	}
	// One deadline: about one timeout. Per-partition deadlines would take
	// n timeouts; half of that leaves ample room for a loaded host.
	if elapsed < timeout || elapsed > n*timeout/2 {
		t.Fatalf("request took %v, want about %v (one shared deadline)", elapsed, timeout)
	}
	if got := b.metrics.replStalls.Value(); got != n {
		t.Fatalf("broker_replication_stalls_total = %d, want %d", got, n)
	}
	stalls := 0
	for _, ev := range flight.Events() {
		if ev.Kind == "stall" {
			stalls++
		}
	}
	if stalls != n {
		t.Fatalf("stall flight events = %d, want %d", stalls, n)
	}
}
