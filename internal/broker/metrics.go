package broker

import (
	"kstreams/internal/obs"
)

// brokerMetrics holds the broker-layer instrument handles, resolved once
// at construction so hot paths pay only atomic ops. The registry is the
// transport network's — shared by every broker in the cluster — so
// unlabeled instruments aggregate cluster-wide, which is the granularity
// the paper's figures reason about; per-partition gauges carry
// topic/partition labels.
type brokerMetrics struct {
	reg *obs.Registry

	produceLat      *obs.Histogram // handleProduce, append + replication wait
	fetchConsumer   *obs.Histogram // handleFetch serving clients
	fetchReplica    *obs.Histogram // handleFetch serving follower replication
	appendLat       *obs.Histogram // leader log append incl. storage delay
	replStalls      *obs.Counter   // replication waits that timed out
	rebalances      *obs.Counter   // group generations completed
	txnCommits      *obs.Counter   // transactions reaching PrepareCommit
	txnAborts       *obs.Counter   // transactions reaching PrepareAbort
	txnPrepareLat   *obs.Histogram // phase 1: Prepare record persist
	txnMarkersLat   *obs.Histogram // phase 2: marker writes across brokers
	txnCompleteLat  *obs.Histogram // phase 2 tail: Complete record persist
	markerCommitTPs *obs.Counter   // commit markers written, one per partition
	markerAbortTPs  *obs.Counter   // abort markers written, one per partition
}

func newBrokerMetrics(reg *obs.Registry) *brokerMetrics {
	return &brokerMetrics{
		reg:             reg,
		produceLat:      reg.Histogram("broker_produce_latency"),
		fetchConsumer:   reg.Histogram("broker_fetch_latency", obs.L("role", "consumer")),
		fetchReplica:    reg.Histogram("broker_fetch_latency", obs.L("role", "replica")),
		appendLat:       reg.Histogram("broker_append_latency"),
		replStalls:      reg.Counter("broker_replication_stalls_total"),
		rebalances:      reg.Counter("group_rebalances_total"),
		txnCommits:      reg.Counter("txn_commits_total"),
		txnAborts:       reg.Counter("txn_aborts_total"),
		txnPrepareLat:   reg.Histogram("txn_phase_latency", obs.L("phase", "prepare")),
		txnMarkersLat:   reg.Histogram("txn_phase_latency", obs.L("phase", "markers")),
		txnCompleteLat:  reg.Histogram("txn_phase_latency", obs.L("phase", "complete")),
		markerCommitTPs: reg.Counter("txn_marker_partitions_total", obs.L("type", "commit")),
		markerAbortTPs:  reg.Counter("txn_marker_partitions_total", obs.L("type", "abort")),
	}
}
