package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{name: "tick", id: 1, start: 0, end: 100},
		{name: "send", id: 2, parent: 1, trace: 1, start: 10, end: 30},
		{name: "send", id: 3, parent: 1, trace: 1, start: 20, end: 40},   // overlaps the first
		{name: "flush", id: 4, parent: 1, trace: 1, start: 90, end: 120}, // runs past the parent
	}
	rows := map[string]layerRow{}
	for _, r := range selfTimes(spans) {
		rows[r.name] = r
	}
	// Children cover [10,40) and [90,100) of the parent: 40 of 100.
	if got := rows["tick"].self; got != 60*time.Nanosecond {
		t.Errorf("tick self = %v, want 60ns", got)
	}
	if r := rows["send"]; r.calls != 2 || r.total != 40 || r.self != 40 {
		t.Errorf("send row = %+v", r)
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0)
	tr.end(id, 1)
	if got := tr.within("x", window{}); got != nil {
		t.Errorf("nil tracer recorded %v", got)
	}
}

func TestTracerTraceIDs(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", 0)
	child := tr.begin("child", root)
	grand := tr.begin("grand", child)
	tr.end(grand, 0)
	tr.end(child, 3)
	tr.end(root, 0)
	for _, s := range tr.spans {
		if s.trace != root {
			t.Errorf("span %s trace = %d, want %d", s.name, s.trace, root)
		}
	}
	if tr.spans[child-1].n != 3 || tr.spans[grand-1].parent != child {
		t.Errorf("spans = %+v", tr.spans)
	}
}
