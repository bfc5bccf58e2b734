package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		// Overlapping children [10,40) and [30,50) cover 40, not 50.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 50},
		// A child reaching past the parent counts only inside it: [90,100).
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130},
		// A child entirely outside the parent (an in-process replay of the
		// op) covers nothing.
		{ID: 5, Parent: 1, Name: "replay", Start: 200, End: 260},
		// Grandchildren count against their own parent only.
		{ID: 6, Parent: 2, Name: "g", Start: 15, End: 25},
		{ID: 7, Name: "lone", Start: 5, End: 8},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{1: 100 - 40 - 10, 2: 30 - 10, 3: 20, 4: 40, 5: 60, 6: 10, 7: 3} {
		if self[id] != want {
			t.Errorf("self(%d) = %d, want %d", id, self[id], want)
		}
	}
	// Touching children merge without double counting.
	self = selfTimes([]span{
		{ID: 1, Start: 0, End: 10},
		{ID: 2, Parent: 1, Start: 0, End: 5},
		{ID: 3, Parent: 1, Start: 5, End: 10},
	})
	if self[1] != 0 {
		t.Errorf("fully covered parent self = %d, want 0", self[1])
	}
}

func TestSpanStatsAndNilTracer(t *testing.T) {
	var none *tracer
	if id := none.add("x", 0, time.Now(), time.Now()); id != 0 {
		t.Errorf("nil tracer returned id %d", id)
	}
	tr := newTracer()
	t0 := tr.epoch
	op := tr.addID(opID(0, 1), "op.votes_json", 0, t0, t0.Add(4*time.Millisecond))
	tr.add("serve.votes_json", op, t0.Add(time.Millisecond), t0.Add(3*time.Millisecond))
	tr.add("serve.votes_json", 0, t0, t0.Add(6*time.Millisecond))
	st := spanStats(tr.spans, nil)
	if s := st["op.votes_json"]; s.n != 1 || s.mean != 4 || s.selfMean != 2 {
		t.Errorf("op stats %+v, want n=1 mean=4ms self=2ms", *s)
	}
	if s := st["serve.votes_json"]; s.n != 2 || s.p50 != 2 || s.mean != 4 {
		t.Errorf("serve stats %+v, want n=2 p50=2ms mean=4ms", *s)
	}
	if opID(0, 1) == opID(1, 1) || opID(0, 1) < 1<<40 {
		t.Error("op ids must differ per connection and stay clear of plain span ids")
	}
}
