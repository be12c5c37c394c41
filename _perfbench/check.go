package main

import (
	"bytes"
	"encoding/binary"
	"strconv"
)

// recID names one input record: (key index, per-key sequence) for the
// streams workloads, (partition, per-partition sequence) for log_p8. A
// record fails at most once however many checks catch it.
type recID struct {
	a int32
	b uint64
}

type failures map[recID]struct{}

func (f failures) add(a int32, b uint64) { f[recID{a, b}] = struct{}{} }

func (f failures) merge(o failures) {
	for id := range o {
		f[id] = struct{}{}
	}
}

// Value layout shared by both workloads: an 8-byte stamp (unix ns: the due
// time of a streams input, the send time of a log record; 0 for backlog
// records, which carry no latency) and an 8-byte sequence, then payload.
const headerBytes = 16

func putHeader(dst []byte, stamp int64, seq uint64) {
	binary.BigEndian.PutUint64(dst[0:8], uint64(stamp))
	binary.BigEndian.PutUint64(dst[8:16], seq)
}

// setStamp rewrites a value's stamp in place.
func setStamp(v []byte, stamp int64) { binary.BigEndian.PutUint64(v[0:8], uint64(stamp)) }

func readHeader(v []byte) (stamp int64, seq uint64, ok bool) {
	if len(v) < headerBytes {
		return 0, 0, false
	}
	return int64(binary.BigEndian.Uint64(v[0:8])), binary.BigEndian.Uint64(v[8:16]), true
}

// keyIndex parses the generator's "key-000042" keys.
func keyIndex(k []byte) (int, bool) {
	i := bytes.IndexByte(k, '-')
	if i < 0 {
		return 0, false
	}
	n, err := strconv.Atoi(string(k[i+1:]))
	return n, err == nil
}

// resultCheck verifies the keep-latest reduce's output as one reader sees
// it, in per-partition order. Every key lives in one output partition, so
// per-key order is the order the application emitted.
type resultCheck struct {
	// strict demands a strictly increasing per-key sequence: under
	// exactly-once a repeat means a duplicate or a record from an aborted
	// transaction. At-least-once permits repeats, so only the final value
	// is checked there.
	strict  bool
	lastSeq []uint64
	lastVal [][]byte
	records int64
	bad     failures
}

func newResultCheck(keys int, strict bool) *resultCheck {
	return &resultCheck{
		strict:  strict,
		lastSeq: make([]uint64, keys),
		lastVal: make([][]byte, keys),
		bad:     failures{},
	}
}

// observe records one output record and returns its key index (-1 for a
// record that cannot have come from the inputs, which counts as failed).
func (c *resultCheck) observe(key, value []byte) int {
	c.records++
	k, ok := keyIndex(key)
	_, seq, okv := readHeader(value)
	if !ok || !okv || k < 0 || k >= len(c.lastSeq) || seq == 0 {
		c.bad.add(-1, uint64(c.records))
		return -1
	}
	if c.strict && seq <= c.lastSeq[k] {
		c.bad.add(int32(k), seq)
	}
	if seq > c.lastSeq[k] || !c.strict {
		c.lastSeq[k] = seq
		c.lastVal[k] = value
	}
	return k
}

// finish compares the final value per key with the reference: the last
// input for that key. A missing or different final value fails that input.
func (c *resultCheck) finish(ref reference) {
	for k, want := range ref.final {
		if want == nil {
			if c.lastVal[k] != nil {
				c.bad.add(int32(k), c.lastSeq[k])
			}
			continue
		}
		if !bytes.Equal(c.lastVal[k], want) {
			c.bad.add(int32(k), ref.seq[k])
		}
	}
}

// logCheck verifies that a reader of the bare log receives every record
// exactly once, in per-partition order.
type logCheck struct {
	next    []uint64 // next expected sequence per partition
	records int64
	bad     failures
}

func newLogCheck(parts int) *logCheck {
	return &logCheck{next: make([]uint64, parts), bad: failures{}}
}

func (c *logCheck) observe(part int32, value []byte) {
	c.records++
	_, seq, ok := readHeader(value)
	if !ok || part < 0 || int(part) >= len(c.next) {
		c.bad.add(-1, uint64(c.records))
		return
	}
	switch n := c.next[part]; {
	case seq == n:
		c.next[part]++
	case seq < n: // seen before: a duplicate or a reordering
		c.bad.add(part, seq)
	default: // a gap: everything skipped over was lost
		for s := n; s < seq; s++ {
			c.bad.add(part, s)
		}
		c.next[part] = seq + 1
	}
}

// done reports whether every produced record has arrived.
func (c *logCheck) done(produced []uint64) bool {
	for p, n := range produced {
		if c.next[p] < n {
			return false
		}
	}
	return true
}

// finish fails every produced record the reader never received.
func (c *logCheck) finish(produced []uint64) {
	for p, n := range produced {
		for s := c.next[p]; s < n; s++ {
			c.bad.add(int32(p), s)
		}
	}
}
