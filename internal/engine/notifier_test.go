package engine

import (
	"testing"

	"dqm/internal/votes"
)

func notifierSession(t *testing.T) *Session {
	t.Helper()
	return NewSession("notify", 100, SessionConfig{})
}

func drain(ch chan struct{}) int {
	n := 0
	for {
		select {
		case <-ch:
			n++
		default:
			return n
		}
	}
}

func TestNotifierSignalsOnVersionAdvance(t *testing.T) {
	s := notifierSession(t)
	ch := make(chan struct{}, 1)
	s.AddNotifier(ch)

	batch := []votes.Vote{{Item: 1, Worker: 0, Label: votes.Dirty}}
	if err := s.Append(batch, true); err != nil {
		t.Fatal(err)
	}
	if got := drain(ch); got != 1 {
		t.Fatalf("signals after Append = %d, want 1", got)
	}

	// A full capacity-1 channel never blocks ingest: signals are level, not
	// count — many bumps collapse into one pending signal.
	for i := 0; i < 5; i++ {
		if err := s.Append([]votes.Vote{{Item: 2 + i, Worker: 1, Label: votes.Clean}}, true); err != nil {
			t.Fatal(err)
		}
	}
	if got := drain(ch); got != 1 {
		t.Fatalf("coalesced signals = %d, want 1", got)
	}

	s.RemoveNotifier(ch)
	if err := s.Append(batch, true); err != nil {
		t.Fatal(err)
	}
	// One stale wakeup may already be in flight at RemoveNotifier return,
	// but a drained channel must stay silent afterwards.
	drain(ch)
	if err := s.Append(batch, true); err != nil {
		t.Fatal(err)
	}
	if got := drain(ch); got != 0 {
		t.Fatalf("signals after RemoveNotifier = %d, want 0", got)
	}
}

func TestNotifierMultipleAndRemoveMiddle(t *testing.T) {
	s := notifierSession(t)
	a := make(chan struct{}, 1)
	b := make(chan struct{}, 1)
	c := make(chan struct{}, 1)
	s.AddNotifier(a)
	s.AddNotifier(b)
	s.AddNotifier(c)
	s.RemoveNotifier(b)

	if err := s.Append([]votes.Vote{{Item: 1, Worker: 0, Label: votes.Dirty}}, true); err != nil {
		t.Fatal(err)
	}
	if drain(a) != 1 || drain(c) != 1 {
		t.Fatalf("surviving notifiers not signaled")
	}
	if drain(b) != 0 {
		t.Fatalf("removed notifier signaled")
	}

	s.RemoveNotifier(a)
	s.RemoveNotifier(c)
	if s.notifiers.Load() != nil {
		t.Fatalf("notifier slice not released after last removal")
	}
}
