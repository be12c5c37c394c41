package broker

import (
	"fmt"
	"hash/fnv"
	"log"
	"os"
	"strconv"
	"sync"
	"time"

	"kstreams/internal/obs"
	"kstreams/internal/protocol"
	"kstreams/internal/retry"
	"kstreams/internal/storage"
	"kstreams/internal/transport"
	"kstreams/internal/wal"
)

var debugOn = os.Getenv("KSTREAMS_DEBUG") != ""

// Internal topic names (paper Section 4.2.1: the transaction log is "another
// internal Kafka topic"; offset commits are "appends to an internal Kafka
// topic as well").
const (
	OffsetsTopic = "__consumer_offsets"
	TxnTopic     = "__transaction_state"
)

// CoordinatorPartition maps a group or transactional id to a partition of
// the corresponding internal topic. Clients, brokers, and the controller
// must agree on this mapping, so it lives here.
func CoordinatorPartition(key string, numPartitions int32) int32 {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int32(h.Sum32() % uint32(numPartitions))
}

// Config parameterizes a broker.
type Config struct {
	// ID is this broker's node id on the transport network.
	ID int32
	// ControllerID is the controller's node id.
	ControllerID int32
	// Backend stores this broker's logs; reuse across restarts to model a
	// broker recovering from its local disk.
	Backend storage.Backend
	// SegmentBytes is the per-log segment roll threshold.
	SegmentBytes int64
	// AppendLatency models storage latency charged per leader append.
	AppendLatency time.Duration
	// ReplicaPollInterval paces follower fetch loops when idle.
	ReplicaPollInterval time.Duration
	// CleanerInterval paces the compaction pass; 0 disables background
	// cleaning (tests call CompactAll explicitly).
	CleanerInterval time.Duration
	// GroupRebalanceTimeout bounds how long a rebalance waits for all known
	// members to rejoin before evicting stragglers.
	GroupRebalanceTimeout time.Duration
	// GroupSessionCheckInterval paces member liveness checks.
	GroupSessionCheckInterval time.Duration
	// OffsetsPartitions and TxnPartitions are the partition counts of the
	// internal __consumer_offsets and __transaction_state topics; all
	// brokers and the controller must agree on them.
	OffsetsPartitions int32
	TxnPartitions     int32
	// TxnTimeout aborts transactions idle longer than this.
	TxnTimeout time.Duration
	// ProduceTimeout bounds how long an acks=all append waits for
	// replication before reporting ErrRequestTimedOut.
	ProduceTimeout time.Duration
	// Faults, when non-nil, enables deliberate protocol-bug injection for
	// harness self-tests; nil means no faults are ever active.
	Faults *Faults
}

func (c *Config) fill() {
	if c.ReplicaPollInterval <= 0 {
		c.ReplicaPollInterval = 100 * time.Microsecond
	}
	if c.GroupRebalanceTimeout <= 0 {
		c.GroupRebalanceTimeout = 2 * time.Second
	}
	if c.GroupSessionCheckInterval <= 0 {
		c.GroupSessionCheckInterval = 100 * time.Millisecond
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = wal.DefaultSegmentBytes
	}
	if c.OffsetsPartitions <= 0 {
		c.OffsetsPartitions = 8
	}
	if c.TxnPartitions <= 0 {
		c.TxnPartitions = 8
	}
	if c.TxnTimeout <= 0 {
		c.TxnTimeout = 60 * time.Second
	}
	if c.ProduceTimeout <= 0 {
		c.ProduceTimeout = defaultProduceTimeout
	}
}

// Broker hosts partition replicas and the two coordinators.
type Broker struct {
	cfg     Config
	net     *transport.Network
	clock   retry.Clock // the transport fabric's shared time source
	metrics *brokerMetrics

	mu         sync.RWMutex
	partitions map[protocol.TopicPartition]*partition

	group *groupCoordinator
	txn   *txnCoordinator

	stopCh  chan struct{}
	stopped bool
	wg      sync.WaitGroup

	// replProbe tracks the replica loop's current Send for stall diagnosis.
	replProbe struct {
		sync.Mutex
		target int32
		since  time.Time
		active bool
	}
}

// New starts a broker: it registers on the network and spawns the
// replication, cleaning, and coordinator maintenance loops.
func New(net *transport.Network, cfg Config) *Broker {
	cfg.fill()
	b := &Broker{
		cfg:        cfg,
		net:        net,
		clock:      net.Clock(),
		metrics:    newBrokerMetrics(net.Obs()),
		partitions: make(map[protocol.TopicPartition]*partition),
		stopCh:     make(chan struct{}),
	}
	b.group = newGroupCoordinator(b)
	b.txn = newTxnCoordinator(b)
	net.Register(cfg.ID, b.handleRPC)
	b.wg.Add(2)
	go b.replicaLoop()
	go b.maintenanceLoop()
	return b
}

// ID returns the broker's node id.
func (b *Broker) ID() int32 { return b.cfg.ID }

// Stop halts all background work. The broker's storage backend retains its
// logs; a restarted broker (a new Broker with the same backend) recovers
// from them.
func (b *Broker) Stop() {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		return
	}
	b.stopped = true
	parts := make([]*partition, 0, len(b.partitions))
	for _, p := range b.partitions {
		parts = append(parts, p)
	}
	b.mu.Unlock()
	close(b.stopCh)
	for _, p := range parts {
		p.stop()
	}
	b.net.Unregister(b.cfg.ID)
	b.wg.Wait()
	b.txn.stop()
	b.mu.Lock()
	for _, p := range b.partitions {
		p.log.Close()
	}
	b.mu.Unlock()
}

func (b *Broker) partition(tp protocol.TopicPartition) *partition {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.partitions[tp]
}

// handleRPC dispatches every request type the broker serves.
func (b *Broker) handleRPC(from int32, req any) any {
	switch r := req.(type) {
	case *protocol.ProduceRequest:
		return b.handleProduce(r)
	case *protocol.FetchRequest:
		return b.handleFetch(r)
	case *protocol.ListOffsetsRequest:
		return b.handleListOffsets(r)
	case *protocol.DeleteRecordsRequest:
		return b.handleDeleteRecords(r)
	case *protocol.LeaderAndISRRequest:
		return b.handleLeaderAndISR(r)
	case *protocol.WriteTxnMarkersRequest:
		return b.handleWriteTxnMarkers(r)
	case *protocol.InitProducerIDRequest:
		return b.txn.handleInitProducerID(r)
	case *protocol.AddPartitionsToTxnRequest:
		return b.txn.handleAddPartitions(r)
	case *protocol.EndTxnRequest:
		return b.txn.handleEndTxn(r)
	case *protocol.TxnOffsetCommitRequest:
		return b.group.handleTxnOffsetCommit(r)
	case *protocol.JoinGroupRequest:
		return b.group.handleJoin(r)
	case *protocol.SyncGroupRequest:
		return b.group.handleSync(r)
	case *protocol.HeartbeatRequest:
		return b.group.handleHeartbeat(r)
	case *protocol.LeaveGroupRequest:
		return b.group.handleLeave(r)
	case *protocol.OffsetCommitRequest:
		return b.group.handleOffsetCommit(r)
	case *protocol.OffsetFetchRequest:
		return b.group.handleOffsetFetch(r)
	default:
		return fmt.Errorf("broker %d: unknown request %T", b.cfg.ID, req)
	}
}

func (b *Broker) handleProduce(r *protocol.ProduceRequest) *protocol.ProduceResponse {
	defer b.metrics.produceLat.ObserveSince(b.clock.Now())
	// acks=leader: the append is durable on the leader, so reply without
	// waiting for replication. Partitions owned by a coordinator are
	// excluded — their append hook must only fire once the batch is
	// committed, so they always wait.
	acksLeader := r.Acks == protocol.AcksLeader
	return &protocol.ProduceResponse{Results: b.appendThenWait(len(r.Entries), acksLeader,
		func(i int) (*partition, *protocol.RecordBatch, protocol.ProduceResult) {
			e := r.Entries[i]
			p := b.partition(e.TP)
			if p == nil {
				return nil, nil, protocol.ProduceResult{TP: e.TP, Err: protocol.ErrUnknownTopicOrPartition}
			}
			return p, e.Batch, protocol.ProduceResult{}
		})}
}

// appendThenWait is the write path shared by produce and transaction
// marker requests, in the shape of Kafka's ReplicaManager.appendRecords
// plus one delayed-produce wait. For each of the request's n positions in
// order, next either names the partition and batch to append or, with a
// nil partition, returns that position's final result. Every batch is
// appended before any replication wait runs, so the acks=all round trips
// of the request's partitions overlap. The waits share one deadline taken
// when the request arrives: a stalled follower holds the handler for one
// ProduceTimeout, not one per partition. With acksLeader, partitions
// without a coordinator append hook skip the wait. Results[i] answers
// position i.
func (b *Broker) appendThenWait(n int, acksLeader bool,
	next func(i int) (*partition, *protocol.RecordBatch, protocol.ProduceResult)) []protocol.ProduceResult {
	deadline := b.clock.Now().Add(b.cfg.ProduceTimeout)
	results := make([]protocol.ProduceResult, n)
	waits := make([]func(time.Time) protocol.ErrorCode, n)
	for i := range results {
		p, batch, res := next(i)
		if p == nil {
			results[i] = res
			continue
		}
		res, wait := p.appendOnly(b.cfg.ID, batch)
		results[i] = res
		if wait != nil && acksLeader && !p.hasAppendHook() {
			wait = nil
		}
		waits[i] = wait
	}
	for i, wait := range waits {
		if wait == nil {
			continue
		}
		if code := wait(deadline); code != protocol.ErrNone {
			results[i].Err = code
		}
	}
	return results
}

// handleFetch assembles the fetch response for every requested
// partition: the encode half of the consumer/replica read path.
//
//kslint:hotpath
func (b *Broker) handleFetch(r *protocol.FetchRequest) *protocol.FetchResponse {
	fetchLat := b.metrics.fetchConsumer
	if r.ReplicaID >= 0 {
		fetchLat = b.metrics.fetchReplica
	}
	defer fetchLat.ObserveSince(b.clock.Now())
	resp := &protocol.FetchResponse{Parts: make([]protocol.FetchPartition, 0, len(r.Entries))}
	maxBytes := r.MaxBytes
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	for _, e := range r.Entries {
		p := b.partition(e.TP)
		if p == nil {
			resp.Parts = append(resp.Parts, protocol.FetchPartition{
				TP: e.TP, Err: protocol.ErrUnknownTopicOrPartition,
			})
			continue
		}
		resp.Parts = append(resp.Parts, p.fetchAsLeader(b.cfg.ID, r.ReplicaID, e.Offset, maxBytes, r.MaxRecords, r.Isolation))
	}
	return resp
}

func (b *Broker) handleListOffsets(r *protocol.ListOffsetsRequest) *protocol.ListOffsetsResponse {
	p := b.partition(r.TP)
	if p == nil {
		return &protocol.ListOffsetsResponse{Err: protocol.ErrUnknownTopicOrPartition}
	}
	if _, lead := p.leader(); !lead {
		return &protocol.ListOffsetsResponse{Err: protocol.ErrNotLeader}
	}
	switch r.Time {
	case -1: // latest readable
		return &protocol.ListOffsetsResponse{Offset: p.highWatermark()}
	case -2: // earliest
		return &protocol.ListOffsetsResponse{Offset: p.log.StartOffset()}
	case -3: // last stable offset (read-committed end)
		return &protocol.ListOffsetsResponse{Offset: p.lastStable()}
	default:
		off := p.log.OffsetForTimestamp(r.Time)
		if off < 0 {
			off = p.highWatermark()
		}
		return &protocol.ListOffsetsResponse{Offset: off}
	}
}

func (b *Broker) handleDeleteRecords(r *protocol.DeleteRecordsRequest) *protocol.DeleteRecordsResponse {
	p := b.partition(r.TP)
	if p == nil {
		return &protocol.DeleteRecordsResponse{Err: protocol.ErrUnknownTopicOrPartition}
	}
	if _, lead := p.leader(); !lead {
		return &protocol.DeleteRecordsResponse{Err: protocol.ErrNotLeader}
	}
	off := r.BeforeOffset
	if hw := p.highWatermark(); off > hw {
		off = hw // never delete unreplicated records
	}
	start, err := p.log.AdvanceStartOffset(off)
	if err != nil {
		return &protocol.DeleteRecordsResponse{Err: protocol.ErrInvalidRecord}
	}
	return &protocol.DeleteRecordsResponse{LogStartOffset: start}
}

// handleLeaderAndISR installs or updates a partition replica per the
// controller's instruction.
func (b *Broker) handleLeaderAndISR(r *protocol.LeaderAndISRRequest) *protocol.LeaderAndISRResponse {
	b.mu.Lock()
	p, ok := b.partitions[r.TP]
	if !ok {
		dir := fmt.Sprintf("topics/%s/%d", r.TP.Topic, r.TP.Partition)
		l, err := wal.Open(b.cfg.Backend, dir, wal.Config{
			SegmentBytes: b.cfg.SegmentBytes,
			Compacted:    r.Config.Compacted,
		})
		if err != nil {
			b.mu.Unlock()
			return &protocol.LeaderAndISRResponse{Err: protocol.ErrInvalidRecord}
		}
		p = newPartition(r.TP, r.Config, b.cfg.ID, l, b.cfg.AppendLatency, b.net.Clock())
		p.produceTimeout = b.cfg.ProduceTimeout
		p.onISRChange = b.forwardISRChange
		p.appendLat = b.metrics.appendLat
		p.stalls = b.metrics.replStalls
		p.obsReg = b.metrics.reg
		tpLabels := []obs.Label{
			obs.L("topic", r.TP.Topic),
			obs.L("partition", strconv.Itoa(int(r.TP.Partition))),
		}
		p.hwGauge = b.metrics.reg.Gauge("broker_partition_high_watermark", tpLabels...)
		p.lsoGauge = b.metrics.reg.Gauge("broker_partition_last_stable_offset", tpLabels...)
		p.isrGauge = b.metrics.reg.Gauge("broker_partition_isr_size", tpLabels...)
		b.partitions[r.TP] = p
	}
	b.mu.Unlock()

	p.mu.Lock()
	stale := r.LeaderEpoch < p.leaderEpoch
	p.mu.Unlock()
	if stale {
		return &protocol.LeaderAndISRResponse{Err: protocol.ErrNone}
	}

	if r.Leader == b.cfg.ID {
		p.becomeLeader(r.LeaderEpoch, r.Replicas, r.ISR)
		b.coordinatorLeadershipChange(r.TP, p, true)
	} else {
		if err := p.becomeFollower(r.LeaderEpoch, r.Leader, r.Replicas, r.ISR); err != nil {
			return &protocol.LeaderAndISRResponse{Err: protocol.ErrInvalidRecord}
		}
		b.coordinatorLeadershipChange(r.TP, p, false)
	}
	if debugOn {
		log.Printf("broker %d: leaderAndISR %s leader=%d epoch=%d", b.cfg.ID, r.TP, r.Leader, r.LeaderEpoch)
	}
	return &protocol.LeaderAndISRResponse{Err: protocol.ErrNone}
}

// coordinatorLeadershipChange hands internal-topic partitions to the group
// and transaction coordinators, which materialize their state by replaying
// the partition log (paper Section 4.2.1: replicas elected as the new
// coordinator "rebuild an in-memory collection of the current transactions
// by replaying the metadata update records from the transaction logs").
func (b *Broker) coordinatorLeadershipChange(tp protocol.TopicPartition, p *partition, leading bool) {
	switch tp.Topic {
	case OffsetsTopic:
		if leading {
			b.group.takePartition(tp.Partition, p)
		} else {
			b.group.dropPartition(tp.Partition)
		}
	case TxnTopic:
		if leading {
			b.txn.takePartition(tp.Partition, p)
		} else {
			b.txn.dropPartition(tp.Partition)
		}
	}
}

// forwardISRChange relays a leader's ISR expansion request to the
// controller and applies the confirmed result.
func (b *Broker) forwardISRChange(tp protocol.TopicPartition, epoch int32, isr []int32) {
	resp, err := b.net.Send(b.cfg.ID, b.cfg.ControllerID, &protocol.AlterISRRequest{
		TP: tp, LeaderEpoch: epoch, NewISR: isr,
	})
	if err != nil {
		return
	}
	ar := resp.(*protocol.AlterISRResponse)
	if ar.Err != protocol.ErrNone {
		return
	}
	if p := b.partition(tp); p != nil {
		p.setISR(epoch, ar.ISR)
	}
}

// handleWriteTxnMarkers appends control markers to registered partitions
// through the produce path: every marker of the request is appended, one
// after another on this broker's request handler, and the replication waits
// then overlap. The sequential appends are what make end-to-end latency
// grow with the number of transactional partitions (paper Section 4.3 /
// Figure 5.a); one replication wait per request keeps the follower fetch
// cycle from being paid once per partition on top.
func (b *Broker) handleWriteTxnMarkers(r *protocol.WriteTxnMarkersRequest) *protocol.WriteTxnMarkersResponse {
	results := b.appendThenWait(len(r.Partitions), false,
		func(i int) (*partition, *protocol.RecordBatch, protocol.ProduceResult) {
			tp := r.Partitions[i]
			select {
			case <-b.stopCh:
				// Broker shutting down: let the coordinator retry elsewhere
				// after the controller re-elects leaders.
				return nil, nil, protocol.ProduceResult{TP: tp, Err: protocol.ErrBrokerUnavailable}
			default:
			}
			p := b.partition(tp)
			if p == nil {
				return nil, nil, protocol.ProduceResult{TP: tp, Err: protocol.ErrUnknownTopicOrPartition}
			}
			if b.cfg.Faults != nil && r.Type == protocol.MarkerAbort && b.cfg.Faults.DropAbortMarkers.Load() {
				// Injected bug: acknowledge the abort marker without writing
				// it, leaving the aborted range unfenced on the log.
				return nil, nil, protocol.ProduceResult{TP: tp}
			}
			if !p.log.HasOngoing(r.ProducerID) {
				// No open transaction here (e.g. a marker retry already landed):
				// acknowledge idempotently.
				if _, lead := p.leader(); lead {
					if debugOn {
						log.Printf("broker %d: marker %v for pid=%d on %v: no ongoing txn, idempotent ack",
							b.cfg.ID, r.Type, r.ProducerID, tp)
					}
					return nil, nil, protocol.ProduceResult{TP: tp}
				}
			}
			return p, protocol.NewMarkerBatch(r.ProducerID, r.ProducerEpoch,
				b.clock.Now().UnixMilli(),
				protocol.ControlMarker{Type: r.Type, CoordinatorEpoch: r.CoordinatorEpoch}), protocol.ProduceResult{}
		})
	if debugOn {
		for _, res := range results {
			log.Printf("broker %d: marker %v for pid=%d on %v: base=%d err=%v",
				b.cfg.ID, r.Type, r.ProducerID, res.TP, res.BaseOffset, res.Err)
		}
	}
	return &protocol.WriteTxnMarkersResponse{Results: results}
}

// replicaLoop drives follower replication: one fetch RPC per leader broker
// per cycle, covering every partition this broker follows from it.
func (b *Broker) replicaLoop() {
	defer b.wg.Done()
	lastDebug := b.clock.Now()
	idle := b.cfg.ReplicaPollInterval
	for {
		if debugOn && b.clock.Now().Sub(lastDebug) > 5*time.Second {
			lastDebug = b.clock.Now()
			b.mu.RLock()
			counts := map[int32]int{}
			total := 0
			for _, p := range b.partitions {
				total++
				p.mu.Lock()
				if !p.isLeader && !p.stopped {
					counts[p.leaderID]++
				}
				p.mu.Unlock()
			}
			b.mu.RUnlock()
			log.Printf("broker %d: replica view: total=%d following=%v", b.cfg.ID, total, counts)
		}
		select {
		case <-b.stopCh:
			return
		default:
		}
		moved := b.replicateOnce()
		if moved {
			idle = b.cfg.ReplicaPollInterval
			continue
		}
		select {
		case <-b.stopCh:
			return
		case <-b.clock.After(idle):
		}
		// Exponential idle backoff: tight polling while data flows (so
		// acks=all appends commit quickly), cheap when quiescent — large
		// partition counts make every scan expensive.
		if idle < 16*b.cfg.ReplicaPollInterval {
			idle *= 2
		}
	}
}

// replicateOnce fetches from every leader this broker follows; it reports
// whether any data arrived (to skip the idle sleep).
func (b *Broker) replicateOnce() bool {
	byLeader := make(map[int32][]*partition)
	b.mu.RLock()
	for _, p := range b.partitions {
		p.mu.Lock()
		if !p.isLeader && !p.stopped && p.leaderID != b.cfg.ID && p.leaderID >= 0 {
			byLeader[p.leaderID] = append(byLeader[p.leaderID], p)
		}
		p.mu.Unlock()
	}
	b.mu.RUnlock()

	moved := false
	for leader, parts := range byLeader {
		cycleStart := b.clock.Now()
		req := &protocol.FetchRequest{ReplicaID: b.cfg.ID, MaxBytes: 1 << 20}
		for _, p := range parts {
			req.Entries = append(req.Entries, protocol.FetchEntry{
				TP: p.tp, Offset: p.log.EndOffset(),
			})
		}
		b.replProbe.Lock()
		b.replProbe.target, b.replProbe.since, b.replProbe.active = leader, b.clock.Now(), true
		b.replProbe.Unlock()
		resp, err := b.net.Send(b.cfg.ID, leader, req)
		b.replProbe.Lock()
		b.replProbe.active = false
		b.replProbe.Unlock()
		if err != nil {
			continue // leader crashed or partitioned; controller will re-elect
		}
		fr := resp.(*protocol.FetchResponse)
		for _, part := range fr.Parts {
			if part.Err != protocol.ErrNone {
				if debugOn {
					log.Printf("broker %d: replica fetch %s from %d: %v", b.cfg.ID, part.TP, leader, part.Err)
				}
				continue
			}
			p := b.partition(part.TP)
			if p == nil {
				continue
			}
			if len(part.Batches) > 0 {
				moved = true
			}
			if err := p.appendAsFollower(part.Batches, part.HighWatermark, part.LogStartOffset); err != nil {
				if debugOn {
					log.Printf("broker %d: follower append %s: %v", b.cfg.ID, part.TP, err)
				}
				// Divergence (should not happen after HW truncation): refetch
				// from scratch next cycle after truncating to our HW.
				p.log.TruncateTo(p.highWatermark())
			}
		}
		if debugOn {
			if d := b.clock.Now().Sub(cycleStart); d > 200*time.Millisecond {
				log.Printf("broker %d: slow replica cycle to leader %d: %v (%d partitions)",
					b.cfg.ID, leader, d.Round(time.Millisecond), len(parts))
			}
		}
	}
	return moved
}

// maintenanceLoop runs compaction and coordinator liveness ticks. Both
// cadences ride the broker clock (deadline tracking instead of tickers,
// since clock.After re-arms per wait) so fault injection can warp them.
func (b *Broker) maintenanceLoop() {
	defer b.wg.Done()
	cleanInterval := maxDuration(b.cfg.CleanerInterval, time.Second)
	sessionInterval := b.cfg.GroupSessionCheckInterval
	nextClean := b.clock.Now().Add(cleanInterval)
	nextSession := b.clock.Now().Add(sessionInterval)
	for {
		now := b.clock.Now()
		wait := nextClean.Sub(now)
		if d := nextSession.Sub(now); d < wait {
			wait = d
		}
		if wait < 0 {
			wait = 0
		}
		select {
		case <-b.stopCh:
			return
		case <-b.clock.After(wait):
		}
		now = b.clock.Now()
		if !now.Before(nextClean) {
			nextClean = now.Add(cleanInterval)
			if b.cfg.CleanerInterval > 0 {
				b.CompactAll()
			}
		}
		if !now.Before(nextSession) {
			nextSession = now.Add(sessionInterval)
			if debugOn {
				b.replProbe.Lock()
				if b.replProbe.active && now.Sub(b.replProbe.since) > 2*time.Second {
					log.Printf("broker %d: replica fetch to leader %d STUCK for %v",
						b.cfg.ID, b.replProbe.target, now.Sub(b.replProbe.since).Round(time.Second))
				}
				b.replProbe.Unlock()
			}
			b.group.tick()
			b.txn.tick()
		}
	}
}

// CompactAll rolls and compacts every compacted partition this broker
// leads. Exposed for tests and the admin tool.
func (b *Broker) CompactAll() {
	b.mu.RLock()
	parts := make([]*partition, 0, len(b.partitions))
	for _, p := range b.partitions {
		parts = append(parts, p)
	}
	b.mu.RUnlock()
	for _, p := range parts {
		if _, lead := p.leader(); !lead || !p.cfg.Compacted {
			continue
		}
		p.log.RollSegment()
		p.log.Compact(p.highWatermark())
	}
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
