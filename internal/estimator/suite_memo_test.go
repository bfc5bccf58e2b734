package estimator

import (
	"reflect"
	"testing"

	"dqm/internal/votes"
)

// memoFeed streams deterministic tasks into a suite.
func memoFeed(s *Suite, tasks, perTask int) {
	for t := 0; t < tasks; t++ {
		for i := 0; i < perTask; i++ {
			label := votes.Clean
			if (t+i)%3 == 0 {
				label = votes.Dirty
			}
			s.Observe(votes.Vote{Item: (t*7 + i) % s.NumItems(), Worker: t % 5, Label: label})
		}
		s.EndTask()
	}
}

// TestSuiteVersionAdvancesOnEveryMutation: the version is the cache key of
// the whole read plane, so every mutating entry point must move it.
func TestSuiteVersionAdvancesOnEveryMutation(t *testing.T) {
	s := NewSuite(10, SuiteConfig{})
	if s.Version() != 0 {
		t.Fatalf("fresh suite version = %d, want 0", s.Version())
	}
	s.Observe(votes.Vote{Item: 1, Worker: 0, Label: votes.Dirty})
	if s.Version() != 1 {
		t.Fatalf("after Observe version = %d, want 1", s.Version())
	}
	s.EndTask()
	if s.Version() != 2 {
		t.Fatalf("after EndTask version = %d, want 2", s.Version())
	}
	s.Reset()
	if s.Version() != 3 {
		t.Fatalf("after Reset version = %d, want 3", s.Version())
	}
	// Reads never move the version.
	s.EstimateAll()
	s.EstimateAll()
	if s.Version() != 3 {
		t.Fatalf("EstimateAll moved the version to %d", s.Version())
	}
}

// TestEstimateAllMemoMatchesUncached: the memoized path must be observationally
// identical to a full recompute at every point of the stream, including right
// after a reset.
func TestEstimateAllMemoMatchesUncached(t *testing.T) {
	s := NewSuite(40, SuiteConfig{Switch: SwitchConfig{TrendWindow: 4}})
	for round := 0; round < 30; round++ {
		memoFeed(s, 3, 6)
		memo := s.EstimateAll()
		if again := s.EstimateAll(); !reflect.DeepEqual(again, memo) {
			t.Fatalf("round %d: repeated memoized reads differ", round)
		}
		if raw := s.EstimateAllUncached(); !reflect.DeepEqual(raw, memo) {
			t.Fatalf("round %d: memoized %+v != uncached %+v", round, memo, raw)
		}
	}
	s.Reset()
	if got, want := s.EstimateAll(), s.EstimateAllUncached(); !reflect.DeepEqual(got, want) {
		t.Fatalf("post-reset memo %+v != uncached %+v", got, want)
	}
}

// TestEstimateAllMemoInvalidatedByMutation: a stale snapshot must never be
// served after the stream moves.
func TestEstimateAllMemoInvalidatedByMutation(t *testing.T) {
	s := NewSuite(20, SuiteConfig{})
	memoFeed(s, 4, 5)
	before := s.EstimateAll()
	s.Observe(votes.Vote{Item: 19, Worker: 9, Label: votes.Dirty})
	after := s.EstimateAll()
	if reflect.DeepEqual(before, after) {
		t.Fatal("memo served a pre-mutation snapshot (Nominal should have moved)")
	}
	if !reflect.DeepEqual(after, s.EstimateAllUncached()) {
		t.Fatal("post-mutation memo diverges from recompute")
	}
}
