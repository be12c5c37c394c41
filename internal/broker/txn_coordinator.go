package broker

import (
	"encoding/json"
	"fmt"
	"log"
	"sync"
	"time"

	"kstreams/internal/protocol"
)

// Transaction coordinator (paper Section 4.2): manages the metadata of
// every transactional producer hashed to the __transaction_state partitions
// this broker leads. All state transitions are persisted as appends to the
// transaction log before taking effect; the PrepareCommit record is the
// synchronization barrier — "once the state update is replicated in the
// transaction log, there is no turning back".

// TxnState is a transaction's lifecycle state, as stored in the txn log.
type TxnState int8

const (
	TxnEmpty TxnState = iota
	TxnOngoing
	TxnPrepareCommit
	TxnPrepareAbort
	TxnCompleteCommit
	TxnCompleteAbort
)

func (s TxnState) String() string {
	switch s {
	case TxnEmpty:
		return "Empty"
	case TxnOngoing:
		return "Ongoing"
	case TxnPrepareCommit:
		return "PrepareCommit"
	case TxnPrepareAbort:
		return "PrepareAbort"
	case TxnCompleteCommit:
		return "CompleteCommit"
	case TxnCompleteAbort:
		return "CompleteAbort"
	default:
		return fmt.Sprintf("TxnState(%d)", int8(s))
	}
}

// txnMeta is the durable metadata of one transactional id. The JSON tags
// define the transaction log record format.
type txnMeta struct {
	ID         string                    `json:"id"`
	PID        int64                     `json:"pid"`
	Epoch      int16                     `json:"epoch"`
	State      TxnState                  `json:"state"`
	Partitions []protocol.TopicPartition `json:"partitions,omitempty"`
	TimeoutMs  int64                     `json:"timeout_ms"`
}

type txnEntry struct {
	opMu sync.Mutex // serializes operations on this transactional id
	meta txnMeta
	last time.Time // last producer activity, for timeout aborts
}

type txnCoordinator struct {
	b *Broker

	mu    sync.Mutex
	owned map[int32]*partition
	txns  map[string]*txnEntry

	leaderCache map[protocol.TopicPartition]int32

	stopCh chan struct{}
	wg     sync.WaitGroup
}

func newTxnCoordinator(b *Broker) *txnCoordinator {
	return &txnCoordinator{
		b:           b,
		owned:       make(map[int32]*partition),
		txns:        make(map[string]*txnEntry),
		leaderCache: make(map[protocol.TopicPartition]int32),
		stopCh:      make(chan struct{}),
	}
}

func (tc *txnCoordinator) stop() {
	tc.mu.Lock()
	select {
	case <-tc.stopCh:
	default:
		close(tc.stopCh)
	}
	tc.mu.Unlock()
	tc.wg.Wait()
}

// takePartition assumes coordination for the transactional ids hashed to
// this txn-log partition, replaying the log to rebuild metadata and
// resuming the phase-two marker writes of any prepared transactions.
func (tc *txnCoordinator) takePartition(idx int32, p *partition) {
	tc.mu.Lock()
	tc.owned[idx] = p
	tc.mu.Unlock()

	off := p.log.StartOffset()
	end := p.log.EndOffset()
	type resumption struct {
		e      *txnEntry
		commit bool
	}
	var resume []resumption
	for off < end {
		batches, err := p.log.Read(off, end, 1<<20)
		if err != nil || len(batches) == 0 {
			break
		}
		for _, b := range batches {
			for i := range b.Records {
				var m txnMeta
				if err := json.Unmarshal(b.Records[i].Value, &m); err != nil {
					continue
				}
				tc.mu.Lock()
				e, ok := tc.txns[m.ID]
				if !ok {
					e = &txnEntry{}
					tc.txns[m.ID] = e
				}
				e.meta = m
				e.last = tc.b.clock.Now()
				tc.mu.Unlock()
			}
			off = b.LastOffset() + 1
		}
	}
	tc.mu.Lock()
	for _, e := range tc.txns {
		if CoordinatorPartition(e.meta.ID, tc.b.cfg.TxnPartitions) != idx {
			continue
		}
		if e.meta.State == TxnPrepareCommit || e.meta.State == TxnPrepareAbort {
			resume = append(resume, resumption{e, e.meta.State == TxnPrepareCommit})
		}
	}
	tc.mu.Unlock()
	for _, r := range resume {
		tc.wg.Add(1)
		go tc.completeTxn(r.e, r.commit)
	}
}

func (tc *txnCoordinator) dropPartition(idx int32) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	delete(tc.owned, idx)
	for id := range tc.txns {
		if CoordinatorPartition(id, tc.b.cfg.TxnPartitions) == idx {
			delete(tc.txns, id)
		}
	}
}

// ownsTxn resolves the txn-log partition for a transactional id.
func (tc *txnCoordinator) ownsTxn(id string) (*partition, bool) {
	idx := CoordinatorPartition(id, tc.b.cfg.TxnPartitions)
	tc.mu.Lock()
	defer tc.mu.Unlock()
	p, ok := tc.owned[idx]
	return p, ok
}

// persist appends the metadata to the transaction log and waits for
// replication; only then may the in-memory state change take effect.
func (tc *txnCoordinator) persist(p *partition, m txnMeta) protocol.ErrorCode {
	v, err := json.Marshal(m)
	if err != nil {
		return protocol.ErrInvalidRecord
	}
	b := &protocol.RecordBatch{
		ProducerID:   protocol.NoProducerID,
		BaseSequence: protocol.NoSequence,
		Records: []protocol.Record{{
			Key:       []byte("txn|" + m.ID),
			Value:     v,
			Timestamp: tc.b.clock.Now().UnixMilli(),
		}},
	}
	res := p.appendAsLeader(tc.b.cfg.ID, b)
	return res.Err
}

func (tc *txnCoordinator) entry(id string) *txnEntry {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	e, ok := tc.txns[id]
	if !ok {
		e = &txnEntry{meta: txnMeta{ID: id, PID: -1, Epoch: -1, State: TxnEmpty}}
		tc.txns[id] = e
	}
	return e
}

// allocatePID asks the controller for a fresh producer id.
func (tc *txnCoordinator) allocatePID() (int64, protocol.ErrorCode) {
	resp, err := tc.b.net.Send(tc.b.cfg.ID, tc.b.cfg.ControllerID, &protocol.AllocatePIDRequest{})
	if err != nil {
		return -1, protocol.ErrCoordinatorNotAvailable
	}
	r := resp.(*protocol.AllocatePIDResponse)
	return r.ProducerID, r.Err
}

// handleInitProducerID registers a transactional id: completing any open
// transaction, bumping the epoch to fence zombies, and returning the
// producer session identity (paper Figure 4.b).
func (tc *txnCoordinator) handleInitProducerID(r *protocol.InitProducerIDRequest) *protocol.InitProducerIDResponse {
	if r.TransactionalID == "" {
		// Idempotence-only producer: no coordinator state.
		pid, errc := tc.allocatePID()
		return &protocol.InitProducerIDResponse{Err: errc, ProducerID: pid, ProducerEpoch: 0}
	}
	p, ok := tc.ownsTxn(r.TransactionalID)
	if !ok {
		return &protocol.InitProducerIDResponse{Err: protocol.ErrNotCoordinator}
	}
	e := tc.entry(r.TransactionalID)
	e.opMu.Lock()
	defer e.opMu.Unlock()

	// Wait out an in-flight completion (phase two still writing markers).
	if errc := tc.awaitCompletion(e); errc != protocol.ErrNone {
		return &protocol.InitProducerIDResponse{Err: errc}
	}

	m := tc.getMeta(e)
	if m.PID < 0 {
		pid, errc := tc.allocatePID()
		if errc != protocol.ErrNone {
			return &protocol.InitProducerIDResponse{Err: errc}
		}
		m.PID = pid
	}
	if m.State == TxnOngoing {
		// Abort the previous incarnation's open transaction before handing
		// the id to the new one.
		m.State = TxnPrepareAbort
		m.Epoch++
		if errc := tc.persist(p, m); errc != protocol.ErrNone {
			return &protocol.InitProducerIDResponse{Err: errc}
		}
		tc.setMeta(e, m)
		tc.runCompletion(e, false)
		if errc := tc.awaitCompletion(e); errc != protocol.ErrNone {
			return &protocol.InitProducerIDResponse{Err: errc}
		}
		m = tc.getMeta(e)
	} else {
		m.Epoch++
	}
	if r.TxnTimeoutMs > 0 {
		m.TimeoutMs = r.TxnTimeoutMs
	}
	m.State = TxnEmpty
	m.Partitions = nil
	if errc := tc.persist(p, m); errc != protocol.ErrNone {
		return &protocol.InitProducerIDResponse{Err: errc}
	}
	tc.setMeta(e, m)
	return &protocol.InitProducerIDResponse{
		ProducerID:    m.PID,
		ProducerEpoch: m.Epoch,
	}
}

// awaitCompletion blocks while the entry's transaction is in a Prepare
// state (its phase-two goroutine is still writing markers).
func (tc *txnCoordinator) awaitCompletion(e *txnEntry) protocol.ErrorCode {
	deadline := tc.b.clock.Now().Add(10 * time.Second)
	for {
		tc.mu.Lock()
		st := e.meta.State
		tc.mu.Unlock()
		if st != TxnPrepareCommit && st != TxnPrepareAbort {
			return protocol.ErrNone
		}
		if tc.b.clock.Now().After(deadline) {
			return protocol.ErrConcurrentTransactions
		}
		select {
		case <-tc.stopCh:
			return protocol.ErrBrokerUnavailable
		case <-tc.b.clock.After(2 * time.Millisecond):
		}
	}
}

// setMeta publishes a metadata update and refreshes the activity clock
// that tick's timeout scan reads; callers hold e.opMu.
func (tc *txnCoordinator) setMeta(e *txnEntry, m txnMeta) {
	tc.mu.Lock()
	e.meta = m
	e.last = tc.b.clock.Now()
	tc.mu.Unlock()
}

// getMeta snapshots the entry's metadata. Handlers hold e.opMu, but the
// phase-two completion goroutine publishes its terminal state under tc.mu
// only, so reads must take tc.mu too.
func (tc *txnCoordinator) getMeta(e *txnEntry) txnMeta {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return e.meta
}

// checkIdentity validates the producer session against a metadata snapshot.
func checkIdentity(m txnMeta, pid int64, epoch int16) protocol.ErrorCode {
	if m.PID != pid {
		return protocol.ErrUnknownProducerID
	}
	if epoch < m.Epoch {
		return protocol.ErrProducerFenced
	}
	if epoch > m.Epoch {
		return protocol.ErrInvalidTxnState
	}
	return protocol.ErrNone
}

// handleAddPartitions registers partitions with the ongoing transaction
// (paper Figure 4.c), starting one if necessary.
func (tc *txnCoordinator) handleAddPartitions(r *protocol.AddPartitionsToTxnRequest) *protocol.AddPartitionsToTxnResponse {
	p, ok := tc.ownsTxn(r.TransactionalID)
	if !ok {
		return &protocol.AddPartitionsToTxnResponse{Err: protocol.ErrNotCoordinator}
	}
	e := tc.entry(r.TransactionalID)
	e.opMu.Lock()
	defer e.opMu.Unlock()
	m := tc.getMeta(e)
	if errc := checkIdentity(m, r.ProducerID, r.ProducerEpoch); errc != protocol.ErrNone {
		return &protocol.AddPartitionsToTxnResponse{Err: errc}
	}
	prevState := m.State
	switch m.State {
	case TxnPrepareCommit, TxnPrepareAbort:
		return &protocol.AddPartitionsToTxnResponse{Err: protocol.ErrConcurrentTransactions}
	case TxnEmpty, TxnCompleteCommit, TxnCompleteAbort:
		m.State = TxnOngoing
		m.Partitions = nil
	case TxnOngoing:
	}
	existing := make(map[protocol.TopicPartition]bool, len(m.Partitions))
	for _, tp := range m.Partitions {
		existing[tp] = true
	}
	added := false
	for _, tp := range r.Partitions {
		if !existing[tp] {
			m.Partitions = append(m.Partitions, tp)
			added = true
		}
	}
	if added || m.State != prevState {
		if errc := tc.persist(p, m); errc != protocol.ErrNone {
			return &protocol.AddPartitionsToTxnResponse{Err: errc}
		}
	}
	tc.setMeta(e, m)
	return &protocol.AddPartitionsToTxnResponse{}
}

// handleEndTxn runs phase one of the two-phase commit: persist the Prepare
// state (the point of no return), acknowledge, and write markers
// asynchronously (paper Figure 4.e/f).
func (tc *txnCoordinator) handleEndTxn(r *protocol.EndTxnRequest) *protocol.EndTxnResponse {
	p, ok := tc.ownsTxn(r.TransactionalID)
	if !ok {
		return &protocol.EndTxnResponse{Err: protocol.ErrNotCoordinator}
	}
	e := tc.entry(r.TransactionalID)
	e.opMu.Lock()
	defer e.opMu.Unlock()
	m := tc.getMeta(e)
	if errc := checkIdentity(m, r.ProducerID, r.ProducerEpoch); errc != protocol.ErrNone {
		return &protocol.EndTxnResponse{Err: errc}
	}
	switch m.State {
	case TxnEmpty:
		// Nothing to commit or abort.
		return &protocol.EndTxnResponse{}
	case TxnCompleteCommit:
		if r.Commit {
			return &protocol.EndTxnResponse{} // idempotent retry
		}
		return &protocol.EndTxnResponse{Err: protocol.ErrInvalidTxnState}
	case TxnCompleteAbort:
		if !r.Commit {
			return &protocol.EndTxnResponse{}
		}
		return &protocol.EndTxnResponse{Err: protocol.ErrInvalidTxnState}
	case TxnPrepareCommit, TxnPrepareAbort:
		return &protocol.EndTxnResponse{Err: protocol.ErrConcurrentTransactions}
	}
	if r.Commit {
		m.State = TxnPrepareCommit
	} else {
		m.State = TxnPrepareAbort
	}
	prepareStart := tc.b.clock.Now()
	if errc := tc.persist(p, m); errc != protocol.ErrNone {
		return &protocol.EndTxnResponse{Err: errc}
	}
	tc.b.metrics.txnPrepareLat.ObserveSince(prepareStart)
	if r.Commit {
		tc.b.metrics.txnCommits.Inc()
	} else {
		tc.b.metrics.txnAborts.Inc()
	}
	tc.setMeta(e, m)
	tc.runCompletion(e, r.Commit)
	return &protocol.EndTxnResponse{}
}

// runCompletion starts phase two in the background.
func (tc *txnCoordinator) runCompletion(e *txnEntry, commit bool) {
	tc.wg.Add(1)
	go tc.completeTxn(e, commit)
}

// completeTxn writes commit/abort markers to every registered partition,
// retrying through leadership changes, then persists the Complete state.
func (tc *txnCoordinator) completeTxn(e *txnEntry, commit bool) {
	defer tc.wg.Done()
	tc.mu.Lock()
	m := e.meta
	tc.mu.Unlock()

	mtype := protocol.MarkerAbort
	if commit {
		mtype = protocol.MarkerCommit
	}
	if debugOn {
		log.Printf("txn %s: completeTxn start commit=%v pid=%d epoch=%d state=%v parts=%v",
			m.ID, commit, m.PID, m.Epoch, m.State, m.Partitions)
		defer log.Printf("txn %s: completeTxn done commit=%v", m.ID, commit)
	}
	markerTPs := tc.b.metrics.markerAbortTPs
	if commit {
		markerTPs = tc.b.metrics.markerCommitTPs
	}
	markersStart := tc.b.clock.Now()
	pending := make(map[protocol.TopicPartition]bool, len(m.Partitions))
	for _, tp := range m.Partitions {
		pending[tp] = true
	}
	for len(pending) > 0 {
		select {
		case <-tc.stopCh:
			return // a successor coordinator resumes from the Prepare record
		default:
		}
		byBroker := tc.resolveLeaders(pending)
		// One request per broker, sent in parallel: within a broker the
		// marker appends are sequential and followed by one overlapped
		// replication wait (the per-partition append cost is what Figure
		// 5.a's latency measures), and brokers work concurrently.
		type brokerResult struct {
			tps  []protocol.TopicPartition
			resp *protocol.WriteTxnMarkersResponse
		}
		results := make(chan brokerResult, len(byBroker))
		var wg sync.WaitGroup
		for bid, tps := range byBroker {
			wg.Add(1)
			go func(bid int32, tps []protocol.TopicPartition) {
				defer wg.Done()
				resp, err := tc.b.net.Send(tc.b.cfg.ID, bid, &protocol.WriteTxnMarkersRequest{
					ProducerID:    m.PID,
					ProducerEpoch: m.Epoch,
					Type:          mtype,
					Partitions:    tps,
				})
				if err != nil {
					results <- brokerResult{tps: tps}
					return
				}
				results <- brokerResult{tps: tps, resp: resp.(*protocol.WriteTxnMarkersResponse)}
			}(bid, tps)
		}
		wg.Wait()
		close(results)
		progress := false
		for br := range results {
			if br.resp == nil {
				tc.invalidateLeaders(br.tps)
				continue
			}
			for _, res := range br.resp.Results {
				switch res.Err {
				case protocol.ErrNone, protocol.ErrDuplicateSequence:
					if pending[res.TP] {
						markerTPs.Inc()
					}
					delete(pending, res.TP)
					progress = true
				case protocol.ErrNotLeader, protocol.ErrUnknownTopicOrPartition:
					tc.invalidateLeaders([]protocol.TopicPartition{res.TP})
				}
			}
		}
		if !progress && len(pending) > 0 {
			select {
			case <-tc.stopCh:
				return
			case <-tc.b.clock.After(5 * time.Millisecond):
			}
		}
	}

	tc.b.metrics.txnMarkersLat.ObserveSince(markersStart)

	// Phase two done: record completion. No handler mutates the entry while
	// it is in a Prepare state (they wait or bail out), so opMu is not
	// needed here — taking it would deadlock with handleInitProducerID,
	// which holds it while awaiting this very completion.
	p, ok := tc.ownsTxn(m.ID)
	if !ok {
		return // lost coordination; successor resumes
	}
	tc.mu.Lock()
	cur := e.meta
	tc.mu.Unlock()
	if cur.Epoch != m.Epoch || (cur.State != TxnPrepareCommit && cur.State != TxnPrepareAbort) {
		return
	}
	done := m
	if commit {
		done.State = TxnCompleteCommit
	} else {
		done.State = TxnCompleteAbort
	}
	completeStart := tc.b.clock.Now()
	if errc := tc.persist(p, done); errc != protocol.ErrNone {
		return
	}
	tc.b.metrics.txnCompleteLat.ObserveSince(completeStart)
	tc.mu.Lock()
	e.meta = done
	tc.mu.Unlock()
}

// resolveLeaders groups pending marker partitions by their current leader.
func (tc *txnCoordinator) resolveLeaders(pending map[protocol.TopicPartition]bool) map[int32][]protocol.TopicPartition {
	tc.mu.Lock()
	var missing []string
	seen := make(map[string]bool)
	for tp := range pending {
		if _, ok := tc.leaderCache[tp]; !ok && !seen[tp.Topic] {
			missing = append(missing, tp.Topic)
			seen[tp.Topic] = true
		}
	}
	tc.mu.Unlock()
	if len(missing) > 0 {
		resp, err := tc.b.net.Send(tc.b.cfg.ID, tc.b.cfg.ControllerID,
			&protocol.MetadataRequest{Topics: missing})
		if err == nil {
			md := resp.(*protocol.MetadataResponse)
			tc.mu.Lock()
			for _, t := range md.Topics {
				for _, pm := range t.Partitions {
					if pm.Leader >= 0 {
						tc.leaderCache[protocol.TopicPartition{Topic: t.Name, Partition: pm.Partition}] = pm.Leader
					}
				}
			}
			tc.mu.Unlock()
		}
	}
	out := make(map[int32][]protocol.TopicPartition)
	tc.mu.Lock()
	for tp := range pending {
		if leader, ok := tc.leaderCache[tp]; ok {
			out[leader] = append(out[leader], tp)
		}
	}
	tc.mu.Unlock()
	return out
}

func (tc *txnCoordinator) invalidateLeaders(tps []protocol.TopicPartition) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for _, tp := range tps {
		delete(tc.leaderCache, tp)
	}
}

// tick aborts transactions idle beyond their timeout, bumping the epoch so
// the stalled producer is fenced when it returns (paper Section 4.2.2:
// "the transaction coordinator itself could also abort an ongoing
// transaction when the transaction times out").
func (tc *txnCoordinator) tick() {
	type victim struct {
		e *txnEntry
		p *partition
	}
	var victims []victim
	now := tc.b.clock.Now()
	tc.mu.Lock()
	for _, e := range tc.txns {
		timeout := time.Duration(e.meta.TimeoutMs) * time.Millisecond
		if timeout <= 0 {
			timeout = tc.b.cfg.TxnTimeout
		}
		if e.meta.State == TxnOngoing && now.Sub(e.last) > timeout {
			idx := CoordinatorPartition(e.meta.ID, tc.b.cfg.TxnPartitions)
			if p, ok := tc.owned[idx]; ok {
				victims = append(victims, victim{e, p})
			}
		}
	}
	tc.mu.Unlock()
	for _, v := range victims {
		v.e.opMu.Lock()
		tc.mu.Lock()
		m := v.e.meta
		tc.mu.Unlock()
		if m.State != TxnOngoing {
			v.e.opMu.Unlock()
			continue
		}
		m.State = TxnPrepareAbort
		m.Epoch++ // fence the stalled producer
		if errc := tc.persist(v.p, m); errc == protocol.ErrNone {
			tc.setMeta(v.e, m)
			tc.runCompletion(v.e, false)
		}
		v.e.opMu.Unlock()
	}
}
