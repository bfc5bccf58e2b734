package estimator

import (
	"reflect"
	"testing"

	"dqm/internal/votes"
	"dqm/internal/xrand"
)

// drawLabel converts a Bernoulli draw into a vote label.
func drawLabel(rng *xrand.RNG, p float64) votes.Label {
	if rng.Bernoulli(p) {
		return votes.Dirty
	}
	return votes.Clean
}

// TestSuiteIncrementalMatchesUncached is the property test the incremental
// estimation plane is pinned by: under a randomized operation sequence —
// votes, task boundaries, resets, interleaved reads — the memoized
// EstimateAll must be bit-identical (reflect.DeepEqual on float64 fields) to
// EstimateAllUncached at every read point. The read pattern deliberately mixes
// hot repeats (memo hits), reads right after single votes (incremental
// refresh) and reads after EndTask-only gaps (the matrix-clean skip path).
func TestSuiteIncrementalMatchesUncached(t *testing.T) {
	rng := xrand.New(2024)
	const n = 60
	s := NewSuite(n, SuiteConfig{Switch: SwitchConfig{TrendWindow: 4}})
	verify := func(s *Suite, step int, what string) {
		t.Helper()
		memo := s.EstimateAll()
		raw := s.EstimateAllUncached()
		if !reflect.DeepEqual(memo, raw) {
			t.Fatalf("step %d (%s): memoized %+v != uncached %+v", step, what, memo, raw)
		}
		if again := s.EstimateAll(); !reflect.DeepEqual(again, memo) {
			t.Fatalf("step %d (%s): repeated memo read differs", step, what)
		}
	}
	for step := 0; step < 3000; step++ {
		switch op := rng.IntN(100); {
		case op < 55: // one vote
			s.Observe(votes.Vote{
				Item:   rng.IntN(n),
				Worker: rng.IntN(7),
				Label:  drawLabel(rng, 0.3),
			})
		case op < 75: // task boundary (advances version but not voteVersion)
			s.EndTask()
		case op < 80: // a burst, read-free, so the next read refreshes a gap
			for i := 0; i < 5+rng.IntN(20); i++ {
				s.Observe(votes.Vote{Item: rng.IntN(n), Worker: rng.IntN(7), Label: votes.Dirty})
			}
			s.EndTask()
		case op < 83:
			s.Reset()
		default: // hot repeat: no mutation since the last read
		}
		if rng.Bernoulli(0.5) {
			verify(s, step, "live")
		}
	}
	verify(s, -1, "final")
}

// TestSuiteMemoSkipsMatrixMembersAfterEndTask: after a memoized read, an
// EndTask-only gap must leave the memo valid-but-stale (incremental path), and
// the refreshed values must still match a full recompute — the correctness
// guard on the matrix-clean skip.
func TestSuiteMemoSkipsMatrixMembersAfterEndTask(t *testing.T) {
	s := NewSuite(30, SuiteConfig{})
	for i := 0; i < 40; i++ {
		label := votes.Clean
		if i%4 == 0 {
			label = votes.Dirty
		}
		s.Observe(votes.Vote{Item: i % 30, Worker: i % 5, Label: label})
	}
	s.EndTask()
	s.EstimateAll()
	if valid, upToDate := s.MemoState(); !valid || !upToDate {
		t.Fatalf("after read: MemoState = (%v, %v), want (true, true)", valid, upToDate)
	}
	s.EndTask() // only the trend detectors can change
	if valid, upToDate := s.MemoState(); !valid || upToDate {
		t.Fatalf("after EndTask: MemoState = (%v, %v), want (true, false)", valid, upToDate)
	}
	if memo, raw := s.EstimateAll(), s.EstimateAllUncached(); !reflect.DeepEqual(memo, raw) {
		t.Fatalf("post-EndTask incremental read %+v != uncached %+v", memo, raw)
	}
	s.Observe(votes.Vote{Item: 3, Worker: 1, Label: votes.Dirty})
	if memo, raw := s.EstimateAll(), s.EstimateAllUncached(); !reflect.DeepEqual(memo, raw) {
		t.Fatalf("post-vote incremental read %+v != uncached %+v", memo, raw)
	}
}

// feedBootstrapSwitch builds a ledger-retaining SWITCH estimator with enough
// stream behind it for CIs to be meaningful.
func feedBootstrapSwitch(t *testing.T) *SwitchEstimator {
	t.Helper()
	e := NewSwitch(200, SwitchConfig{RetainLedgers: true, TrendWindow: 4})
	rng := xrand.New(88)
	for task := 0; task < 30; task++ {
		for i := 0; i < 40; i++ {
			e.Observe(votes.Vote{
				Item:   rng.IntN(200),
				Worker: rng.IntN(9),
				Label:  drawLabel(rng, 0.2),
			})
		}
		e.EndTask()
	}
	return e
}

// TestBootstrapParallelDeterminism pins the worker-pool contract: the CI is a
// pure function of (state, seed, replicate count) — bit-identical at any
// worker count, because replicate i always draws from the parent's i-th child
// stream no matter which worker claims it.
func TestBootstrapParallelDeterminism(t *testing.T) {
	e := feedBootstrapSwitch(t)
	st, err := e.CaptureBootstrap()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Release()
	var want CI
	for i, workers := range []int{1, 2, 8} {
		ci, err := st.Bootstrap(400, 0.95, xrand.New(13), workers)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = ci
			continue
		}
		if ci != want {
			t.Fatalf("workers=%d: CI %+v != workers=1 CI %+v", workers, ci, want)
		}
	}

	// Same for the Chao92 state.
	m := votes.NewMatrix(100)
	rng := xrand.New(3)
	for i := 0; i < 700; i++ {
		m.Add(votes.Vote{Item: rng.IntN(100), Worker: rng.IntN(5), Label: drawLabel(rng, 0.25)})
	}
	cst := CaptureChao92(m)
	defer cst.Release()
	base, err := cst.Bootstrap(400, 0.9, xrand.New(21), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		ci, err := cst.Bootstrap(400, 0.9, xrand.New(21), workers)
		if err != nil {
			t.Fatal(err)
		}
		if ci != base {
			t.Fatalf("chao92 workers=%d: CI %+v != serial %+v", workers, ci, base)
		}
	}
}

// TestBootstrapStateReuse: pooled capture states must be safe to reuse across
// capture/release cycles and across differently-sized sources — the
// per-request allocation the satellite removed must not cost correctness.
func TestBootstrapStateReuse(t *testing.T) {
	e := feedBootstrapSwitch(t)
	want := CI{}
	for round := 0; round < 5; round++ {
		st, err := e.CaptureBootstrap()
		if err != nil {
			t.Fatal(err)
		}
		ci, err := st.Bootstrap(200, 0.95, xrand.New(55), 4)
		st.Release()
		if err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			want = ci
		} else if ci != want {
			t.Fatalf("round %d: pooled-state CI %+v != first %+v", round, ci, want)
		}
		// Interleave a different-shape capture so the pool hands back dirty
		// buffers that must be fully re-initialized.
		m := votes.NewMatrix(10 + round)
		m.Add(votes.Vote{Item: round % 3, Worker: 0, Label: votes.Dirty})
		cst := CaptureChao92(m)
		if _, err := cst.Bootstrap(50, 0.9, xrand.New(1), 2); err != nil {
			t.Fatal(err)
		}
		cst.Release()
	}
}
