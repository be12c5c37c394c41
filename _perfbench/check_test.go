package main

import (
	"fmt"
	"testing"
)

func streamValue(seq uint64, payload string) []byte {
	v := make([]byte, headerBytes+len(payload))
	putHeader(v, 0, seq)
	copy(v[headerBytes:], payload)
	return v
}

// reference builds inputs for two keys: key 0 gets sequences 1..3, key 1
// gets 1..2.
func testReference() (reference, [][]byte, [][]byte) {
	in := reference{seq: make([]uint64, 3), final: make([][]byte, 3)}
	var k0, k1 [][]byte
	for s := uint64(1); s <= 3; s++ {
		k0 = append(k0, streamValue(s, fmt.Sprintf("a%d", s)))
	}
	for s := uint64(1); s <= 2; s++ {
		k1 = append(k1, streamValue(s, fmt.Sprintf("b%d", s)))
	}
	in.seq[0], in.final[0] = 3, k0[2]
	in.seq[1], in.final[1] = 2, k1[1]
	return in, k0, k1
}

func TestResultCheckPassesCleanOutput(t *testing.T) {
	in, k0, k1 := testReference()
	c := newResultCheck(3, true)
	c.observe([]byte("key-000000"), k0[0])
	c.observe([]byte("key-000001"), k1[1])
	c.observe([]byte("key-000000"), k0[2])
	c.finish(in)
	if len(c.bad) != 0 {
		t.Fatalf("clean output failed: %v", c.bad)
	}
}

func TestResultCheckCatchesDropAndDuplicate(t *testing.T) {
	in, k0, k1 := testReference()
	c := newResultCheck(3, true)
	c.observe([]byte("key-000000"), k0[1])
	c.observe([]byte("key-000000"), k0[1]) // duplicated
	c.observe([]byte("key-000001"), k1[0]) // key 1's final value is dropped
	c.finish(in)
	want := failures{{0, 2}: {}, {0, 3}: {}, {1, 2}: {}}
	if fmt.Sprint(c.bad) != fmt.Sprint(want) {
		t.Fatalf("failures = %v, want %v", c.bad, want)
	}
}

func TestResultCheckAtLeastOnceAllowsRepeats(t *testing.T) {
	in, k0, k1 := testReference()
	c := newResultCheck(3, false)
	c.observe([]byte("key-000000"), k0[2])
	c.observe([]byte("key-000000"), k0[2]) // a replay: allowed
	c.observe([]byte("key-000001"), k1[1])
	c.finish(in)
	if len(c.bad) != 0 {
		t.Fatalf("at-least-once repeat failed: %v", c.bad)
	}
	c.observe([]byte("key-000001"), k1[0]) // a stale final value: wrong
	c.finish(in)
	if _, ok := c.bad[recID{1, 2}]; !ok || len(c.bad) != 1 {
		t.Fatalf("stale final value not caught: %v", c.bad)
	}
}

func logValue(seq uint64) []byte {
	v := make([]byte, headerBytes)
	putHeader(v, 1, seq)
	return v
}

func TestLogCheckCatchesDropAndDuplicate(t *testing.T) {
	produced := []uint64{4, 2}
	c := newLogCheck(2)
	for _, s := range []uint64{0, 1, 3} { // 2 dropped
		c.observe(0, logValue(s))
	}
	for _, s := range []uint64{0, 0, 1} { // 0 duplicated
		c.observe(1, logValue(s))
	}
	if !c.done(produced) {
		t.Fatal("done should hold once every partition reached its end")
	}
	c.finish(produced)
	want := failures{{0, 2}: {}, {1, 0}: {}}
	if fmt.Sprint(c.bad) != fmt.Sprint(want) {
		t.Fatalf("failures = %v, want %v", c.bad, want)
	}
}

func TestLogCheckCatchesMissingTail(t *testing.T) {
	produced := []uint64{3}
	c := newLogCheck(1)
	c.observe(0, logValue(0))
	if c.done(produced) {
		t.Fatal("done with records outstanding")
	}
	c.finish(produced)
	if len(c.bad) != 2 {
		t.Fatalf("missing tail: failures = %v, want 2", c.bad)
	}
}
