// Package broker implements one Kafka broker: partition replicas with
// leader/follower roles, the produce path with idempotent de-duplication,
// the fetch path with read-committed filtering, follower replication and
// high-watermark tracking, the consumer group coordinator, and the
// transaction coordinator (paper Sections 3 and 4).
package broker

import (
	"fmt"
	"log"
	"sync"
	"time"

	"kstreams/internal/obs"
	"kstreams/internal/protocol"
	"kstreams/internal/retry"
	"kstreams/internal/wal"
)

// defaultProduceTimeout bounds how long an acks=all append waits for
// replication before reporting ErrRequestTimedOut when Config.ProduceTimeout
// is unset. The deadline is measured on the partition's injected clock, so
// it holds under the simulator's virtual time as well as wall time.
const defaultProduceTimeout = 10 * time.Second

// partition is one replica of a topic partition hosted by this broker.
type partition struct {
	tp   protocol.TopicPartition
	cfg  protocol.TopicConfig
	self int32 // hosting broker's id
	log  *wal.Log

	mu   sync.Mutex
	cond *sync.Cond

	leaderID    int32
	leaderEpoch int32
	replicas    []int32
	isr         []int32
	isLeader    bool
	stopped     bool

	// hw is the high watermark: the largest offset known to be replicated
	// to every in-sync replica. Never regresses.
	hw int64
	// followerLEO tracks, on the leader, each follower's log end offset as
	// reported by its replica fetches.
	followerLEO map[int32]int64
	// lastFetch records each follower's last replica fetch (diagnostics).
	// Stamped from p.clock — never the wall clock — so the ages printed in
	// replication-stall diagnostics stay meaningful under virtual time.
	lastFetch map[int32]time.Time

	// produceTimeout bounds the acks=all replication waits of
	// appendAsLeader; zero selects defaultProduceTimeout. Broker requests
	// carry their own deadline instead.
	produceTimeout time.Duration

	// appendDelay models storage latency per leader append, paced by the
	// hosting broker's clock (the transport fabric's shared time source).
	appendDelay time.Duration
	clock       retry.Clock

	// Observability handles, set by the hosting broker after construction;
	// nil handles no-op, so bare newPartition (tests) works uninstrumented.
	appendLat *obs.Histogram
	hwGauge   *obs.Gauge
	lsoGauge  *obs.Gauge
	isrGauge  *obs.Gauge
	stalls    *obs.Counter
	// obsReg resolves the flight recorder at stall time: it may be
	// attached to the registry after the partition is created.
	obsReg *obs.Registry

	// onAppend, when set by a coordinator that owns this partition, runs
	// after every successful leader append (data and markers) so the
	// coordinator can materialize state from its own log.
	onAppend func(*protocol.RecordBatch)

	// onISRChange notifies the broker that the leader wants the ISR
	// changed (follower caught up); the broker forwards to the controller.
	onISRChange func(tp protocol.TopicPartition, epoch int32, isr []int32)
}

func newPartition(tp protocol.TopicPartition, cfg protocol.TopicConfig, self int32, log *wal.Log, appendDelay time.Duration, clock retry.Clock) *partition {
	p := &partition{
		tp:   tp,
		cfg:  cfg,
		self: self,
		log:  log,
		// No leader is known until the first leaderAndISR lands. The zero
		// value would read as node 0 — the controller — and the replica
		// loop would fetch from it (the partition is visible in the
		// broker's map before becomeLeader/becomeFollower runs).
		leaderID:    -1,
		followerLEO: make(map[int32]int64),
		lastFetch:   make(map[int32]time.Time),
		appendDelay: appendDelay,
		clock:       retry.Or(clock),
	}
	p.cond = sync.NewCond(&p.mu)
	// A recovered replica trusts its local log up to its end; the controller
	// will make it a follower first, which truncates to the leader's state.
	p.hw = log.EndOffset()
	return p
}

// becomeLeader installs leadership state. The high watermark is preserved
// (it never regresses); follower progress is re-learned from their fetches.
func (p *partition) becomeLeader(epoch int32, replicas, isr []int32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.leaderEpoch = epoch
	p.leaderID = p.self
	p.replicas = replicas
	p.isr = isr
	p.isrGauge.Set(int64(len(isr)))
	p.isLeader = true
	p.followerLEO = make(map[int32]int64)
	p.lastFetch = make(map[int32]time.Time)
	// The ISR may have shrunk (e.g. to the leader alone): recompute the
	// watermark so waiting appends are released.
	p.advanceHWLocked()
	p.cond.Broadcast()
}

// becomeFollower drops leadership and truncates the log to the high
// watermark: records above it were never committed and will be re-fetched
// from the new leader, which (being in the ISR) has everything below it.
func (p *partition) becomeFollower(epoch int32, leader int32, replicas, isr []int32) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.leaderEpoch = epoch
	p.leaderID = leader
	p.replicas = replicas
	p.isr = isr
	p.isrGauge.Set(int64(len(isr)))
	p.isLeader = false
	p.cond.Broadcast()
	return p.log.TruncateTo(p.hw)
}

// setISR applies a controller-confirmed ISR (e.g. after a broker crash).
func (p *partition) setISR(epoch int32, isr []int32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if epoch < p.leaderEpoch {
		return
	}
	p.leaderEpoch = epoch
	p.isr = isr
	p.isrGauge.Set(int64(len(isr)))
	p.advanceHWLocked()
	p.cond.Broadcast()
}

func (p *partition) stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stopped = true
	p.cond.Broadcast()
}

func (p *partition) leader() (int32, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.leaderID, p.isLeader
}

// hasAppendHook reports whether a coordinator owns this partition (its
// append hook must only fire after commit, so acks=leader never applies).
func (p *partition) hasAppendHook() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.onAppend != nil
}

func (p *partition) highWatermark() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hw
}

// lastStable returns the last stable offset: min(high watermark, first
// offset of any open transaction). Read-committed fetches stop here
// (paper Section 4.2.3).
func (p *partition) lastStable() int64 {
	hw := p.highWatermark()
	if fu := p.log.FirstUnstable(); fu >= 0 && fu < hw {
		hw = fu
	}
	p.lsoGauge.Set(hw)
	return hw
}

// advanceHWLocked recomputes the high watermark as the minimum log end
// offset across the leader and all in-sync followers.
func (p *partition) advanceHWLocked() {
	min := p.log.EndOffset()
	for _, id := range p.isr {
		if id == p.self {
			continue // the leader's own LEO is the starting minimum
		}
		leo, ok := p.followerLEO[id]
		if !ok {
			// Unknown progress for an in-sync follower: hold the watermark.
			return
		}
		if leo < min {
			min = leo
		}
	}
	if min > p.hw {
		p.hw = min
		p.hwGauge.Set(min)
		p.cond.Broadcast()
	}
}

// isrContains reports membership; caller holds the lock.
func isrContains(isr []int32, id int32) bool {
	for _, m := range isr {
		if m == id {
			return true
		}
	}
	return false
}

// selfOnly reports whether the leader is the only replica expected in sync.
func (p *partition) soleReplicaLocked(selfID int32) bool {
	for _, id := range p.isr {
		if id != selfID {
			return false
		}
	}
	return true
}

// appendAsLeader validates and appends a batch, then waits until it is
// replicated to the full ISR (acks=all). Returns the assigned base offset.
// Coordinators use it for their single-record state appends.
func (p *partition) appendAsLeader(selfID int32, b *protocol.RecordBatch) protocol.ProduceResult {
	res, wait := p.appendOnly(selfID, b)
	if wait != nil {
		timeout := p.produceTimeout
		if timeout <= 0 {
			timeout = defaultProduceTimeout
		}
		if code := wait(p.clock.Now().Add(timeout)); code != protocol.ErrNone {
			res.Err = code
		}
	}
	return res
}

// appendOnly validates and appends a batch without waiting for
// replication. It returns the produce result and, on success, a wait
// function that blocks until the batch is committed (high watermark past
// it) or the deadline passes, and then fires the coordinator append hook.
// Multi-partition requests append everything first and run the waits
// afterwards against one request deadline (Broker.appendThenWait), so the
// replication round-trips of independent partitions overlap.
//
//kslint:hotpath
func (p *partition) appendOnly(selfID int32, b *protocol.RecordBatch) (protocol.ProduceResult, func(deadline time.Time) protocol.ErrorCode) {
	res := protocol.ProduceResult{TP: p.tp}
	p.mu.Lock()
	if !p.isLeader || p.stopped {
		p.mu.Unlock()
		res.Err = protocol.ErrNotLeader
		return res, nil
	}
	epoch := p.leaderEpoch
	p.mu.Unlock()

	appendStart := p.clock.Now()
	p.clock.Sleep(p.appendDelay)
	ar := p.log.Append(b)
	p.appendLat.ObserveSince(appendStart)
	switch ar.Err {
	case protocol.ErrNone:
	case protocol.ErrDuplicateSequence:
		// Already appended by an earlier attempt: acknowledge with the
		// original offset without waiting again.
		res.Err = protocol.ErrDuplicateSequence
		res.BaseOffset = ar.BaseOffset
		return res, nil
	default:
		res.Err = ar.Err
		return res, nil
	}
	res.BaseOffset = ar.BaseOffset
	last := b.LastOffset()

	p.mu.Lock()
	if p.soleReplicaLocked(selfID) {
		p.advanceHWLocked()
	}
	p.mu.Unlock()

	return res, func(deadline time.Time) protocol.ErrorCode {
		if code := p.waitCommitted(selfID, epoch, last, deadline); code != protocol.ErrNone {
			return code
		}
		p.mu.Lock()
		hook := p.onAppend
		p.mu.Unlock()
		if hook != nil {
			hook(b)
		}
		return protocol.ErrNone
	}
}

// waitCommitted blocks until the high watermark passes last, or reports
// ErrRequestTimedOut once deadline has passed.
func (p *partition) waitCommitted(selfID int32, epoch int32, last int64, deadline time.Time) protocol.ErrorCode {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.hw <= last {
		if !p.isLeader || p.stopped || p.leaderEpoch != epoch {
			return protocol.ErrNotLeader
		}
		if p.clock.Now().After(deadline) {
			p.recordStallLocked(selfID, last)
			return protocol.ErrRequestTimedOut
		}
		p.waitLocked(deadline)
	}
	return protocol.ErrNone
}

// recordStallLocked reports a replication wait that timed out: it counts
// the stall, records a flight event with a snapshot of follower state,
// and logs the same snapshot in debug mode. p.mu must be held.
//
//kslint:coldpath runs once per timed-out replication wait, never in steady state
func (p *partition) recordStallLocked(selfID int32, last int64) {
	p.stalls.Inc()
	now := p.clock.Now()
	ages := make(map[int32]time.Duration, len(p.lastFetch))
	for id, at := range p.lastFetch {
		ages[id] = now.Sub(at).Round(time.Millisecond)
	}
	detail := fmt.Sprintf("broker %d: %s hw=%d last=%d leo=%d isr=%v followerLEO=%v fetchAges=%v",
		selfID, p.tp, p.hw, last, p.log.EndOffset(), p.isr, p.followerLEO, ages)
	p.obsReg.FlightRecorder().Record("stall", "replication", detail, now.UnixNano(), 0)
	if debugOn {
		log.Printf("replication wait timed out: %s", detail)
	}
}

// waitLocked blocks on the condition variable with a coarse timeout pulse
// so deadline checks make progress even without state changes.
func (p *partition) waitLocked(deadline time.Time) {
	done := make(chan struct{})
	go func() {
		select {
		case <-p.clock.After(10 * time.Millisecond):
			p.cond.Broadcast()
		case <-done:
		}
	}()
	p.cond.Wait()
	close(done)
}

// fetchAsLeader serves a replica or consumer fetch for this partition.
//
//kslint:hotpath
func (p *partition) fetchAsLeader(selfID, replicaID int32, offset int64, maxBytes, maxRecords int, iso protocol.IsolationLevel) protocol.FetchPartition {
	out := protocol.FetchPartition{TP: p.tp}
	p.mu.Lock()
	if !p.isLeader || p.stopped {
		p.mu.Unlock()
		out.Err = protocol.ErrNotLeader
		return out
	}
	if replicaID >= 0 {
		// Replica fetch: the offset is the follower's log end offset.
		p.lastFetch[replicaID] = p.clock.Now()
		if prev, ok := p.followerLEO[replicaID]; !ok || offset > prev {
			p.followerLEO[replicaID] = offset
			p.advanceHWLocked()
		}
		// A caught-up follower rejoins the ISR.
		if !isrContains(p.isr, replicaID) && isrContains(p.replicas, replicaID) && offset >= p.hw {
			newISR := append(append([]int32(nil), p.isr...), replicaID)
			epoch := p.leaderEpoch
			notify := p.onISRChange
			p.mu.Unlock()
			if notify != nil {
				notify(p.tp, epoch, newISR)
			}
			p.mu.Lock()
		}
	}
	hw := p.hw
	p.mu.Unlock()

	out.HighWatermark = hw
	// Compute the LSO from the same HW snapshot the response reports:
	// recomputing via lastStable() could read a fresher, higher HW and
	// hand a consumer an observation where LSO > HW.
	lso := hw
	if fu := p.log.FirstUnstable(); fu >= 0 && fu < lso {
		lso = fu
	}
	p.lsoGauge.Set(lso)
	out.LastStableOffset = lso
	out.LogStartOffset = p.log.StartOffset()

	maxOffset := p.log.EndOffset() // replicas read everything
	if replicaID < 0 {
		if iso == protocol.ReadCommitted {
			maxOffset = out.LastStableOffset
		} else {
			maxOffset = hw
		}
		if maxRecords > 0 && offset+int64(maxRecords) < maxOffset {
			// Offsets are dense outside compaction gaps, so this bounds
			// the record count without a second decode pass.
			maxOffset = offset + int64(maxRecords)
		}
	}
	batches, err := p.log.Read(offset, maxOffset, maxBytes)
	if err != nil {
		out.Err = protocol.ErrOffsetOutOfRange
		return out
	}
	out.Batches = batches
	if replicaID < 0 && iso == protocol.ReadCommitted && len(batches) > 0 {
		end := batches[len(batches)-1].LastOffset() + 1
		for _, a := range p.log.AbortedIn(offset, end) {
			out.AbortedTxns = append(out.AbortedTxns, protocol.AbortedTxn{
				ProducerID:  a.ProducerID,
				FirstOffset: a.FirstOffset,
			})
		}
	}
	return out
}

// appendAsFollower applies leader-assigned batches from a replica fetch and
// adopts the leader's high watermark and log start offset.
func (p *partition) appendAsFollower(batches []*protocol.RecordBatch, leaderHW, leaderStart int64) error {
	for _, b := range batches {
		if b.BaseOffset < p.log.EndOffset() {
			continue // already have it
		}
		if err := p.log.AppendAssigned(b); err != nil {
			return err
		}
	}
	if leaderStart > p.log.StartOffset() {
		if _, err := p.log.AdvanceStartOffset(leaderStart); err != nil {
			return err
		}
	}
	p.mu.Lock()
	leo := p.log.EndOffset()
	if leaderHW > p.hw {
		if leaderHW > leo {
			leaderHW = leo
		}
		if leaderHW > p.hw {
			p.hw = leaderHW
		}
	}
	p.mu.Unlock()
	return nil
}
