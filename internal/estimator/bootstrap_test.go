package estimator

import (
	"testing"

	"dqm/internal/crowd"
	"dqm/internal/dataset"
	"dqm/internal/votes"
	"dqm/internal/xrand"
)

// TestCIHelpers pins percentileCI: the interval's ends are the replicates
// at the α/2 and 1−α/2 ranks, whatever order they arrive in.
func TestCIHelpers(t *testing.T) {
	samples := make([]float64, 101)
	for i := range samples {
		samples[i] = float64((i * 37) % 101)
	}
	if got, want := percentileCI(samples, 0.5, 101), (CI{Lo: 25, Hi: 75, Level: 0.5, Replicates: 101}); got != want {
		t.Fatalf("percentileCI = %+v, want %+v", got, want)
	}
}

// bootstrapSwitch is a one-shot SWITCH interval: capture, then b replicates
// on the caller's goroutine.
func bootstrapSwitch(e *SwitchEstimator, b int, level float64, rng *xrand.RNG) (CI, error) {
	st, err := e.CaptureBootstrap()
	if err != nil {
		return CI{}, err
	}
	defer st.Release()
	return st.Bootstrap(b, level, rng, 1)
}

func TestBootstrapArgsValidation(t *testing.T) {
	st := CaptureChao92(votes.NewMatrix(5))
	defer st.Release()
	if _, err := st.Bootstrap(5, 0.95, xrand.New(1), 1); err == nil {
		t.Fatal("too few replicates accepted")
	}
	if _, err := st.Bootstrap(100, 1.5, xrand.New(1), 1); err == nil {
		t.Fatal("bad level accepted")
	}
	if _, err := st.Bootstrap(100, 0, xrand.New(1), 1); err == nil {
		t.Fatal("zero level accepted")
	}
}

// bootstrapScenario builds a crowd-labeled matrix and a ledger-retaining
// SWITCH estimator over a planted population.
func bootstrapScenario(t *testing.T) (*votes.Matrix, *SwitchEstimator, *dataset.Population) {
	t.Helper()
	pop := dataset.NewPlantedPopulation(300, 45, 3, "bootstrap")
	sim := crowd.NewSimulator(crowd.Config{
		Truth:        pop.Truth.IsDirty,
		N:            pop.N(),
		Profile:      crowd.Profile{FPRate: 0.01, FNRate: 0.15},
		ItemsPerTask: 10,
		Seed:         3,
	})
	m := votes.NewMatrix(pop.N())
	e := NewSwitch(pop.N(), SwitchConfig{RetainLedgers: true})
	for _, task := range sim.Tasks(400) {
		for _, v := range task.AppendVotes(nil) {
			m.Add(v)
			e.Observe(v)
		}
		e.EndTask()
	}
	return m, e, pop
}

func TestBootstrapChao92CoversPointEstimate(t *testing.T) {
	m, _, _ := bootstrapScenario(t)
	st := CaptureChao92(m)
	defer st.Release()
	ci, err := st.Bootstrap(200, 0.95, xrand.New(9), 1)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Lo > ci.Hi {
		t.Fatalf("inverted interval %+v", ci)
	}
	point := Chao92(m)
	if point < ci.Lo || point > ci.Hi {
		t.Fatalf("95%% CI [%v, %v] misses the point estimate %v", ci.Lo, ci.Hi, point)
	}
	if ci.Replicates != 200 || ci.Level != 0.95 {
		t.Fatalf("metadata wrong: %+v", ci)
	}
}

func TestBootstrapSwitchCoversTruthAndPoint(t *testing.T) {
	_, e, pop := bootstrapScenario(t)
	ci, err := bootstrapSwitch(e, 200, 0.95, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	point := e.Estimate().Total
	if point < ci.Lo || point > ci.Hi {
		t.Fatalf("CI [%v, %v] misses the point estimate %v", ci.Lo, ci.Hi, point)
	}
	// With a well-behaved crowd the interval should also cover the truth.
	if truth := float64(pop.NumDirty()); truth < ci.Lo || truth > ci.Hi {
		t.Logf("note: CI [%v, %v] does not cover truth %d (allowed, but unusual)",
			ci.Lo, ci.Hi, pop.NumDirty())
	}
	if ci.Hi <= ci.Lo {
		t.Fatalf("degenerate interval %+v", ci)
	}
}

func TestBootstrapSwitchRequiresLedgers(t *testing.T) {
	e := NewSwitch(10, SwitchConfig{})
	e.Observe(votes.Vote{Item: 0, Label: votes.Dirty})
	e.EndTask()
	if _, err := bootstrapSwitch(e, 100, 0.95, xrand.New(1)); err == nil {
		t.Fatal("bootstrap without ledgers accepted")
	}
}

func TestBootstrapSwitchNarrowsWithData(t *testing.T) {
	pop := dataset.NewPlantedPopulation(300, 45, 5, "narrowing")
	build := func(tasks int) *SwitchEstimator {
		sim := crowd.NewSimulator(crowd.Config{
			Truth:        pop.Truth.IsDirty,
			N:            pop.N(),
			Profile:      crowd.Profile{FPRate: 0.01, FNRate: 0.15},
			ItemsPerTask: 10,
			Seed:         5,
		})
		e := NewSwitch(pop.N(), SwitchConfig{RetainLedgers: true})
		for _, task := range sim.Tasks(tasks) {
			for _, v := range task.AppendVotes(nil) {
				e.Observe(v)
			}
			e.EndTask()
		}
		return e
	}
	early, err := bootstrapSwitch(build(60), 200, 0.9, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	late, err := bootstrapSwitch(build(900), 200, 0.9, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	// Relative width must shrink as evidence accumulates.
	mid := func(c CI) float64 { return (c.Lo + c.Hi) / 2 }
	width := func(c CI) float64 { return c.Hi - c.Lo }
	if width(late)/mid(late) >= width(early)/mid(early) {
		t.Fatalf("interval did not narrow: early %v/%v, late %v/%v",
			width(early), mid(early), width(late), mid(late))
	}
}

func TestLedgerRoundTrip(t *testing.T) {
	// Ledger frequencies must agree with the tracker's fingerprints.
	_, e, _ := bootstrapScenario(t)
	tr := e.tracker
	var pos, neg int64
	for i := 0; i < tr.NumItems(); i++ {
		for _, ev := range tr.ItemLedger(i) {
			if ev.Positive {
				pos++
			} else {
				neg++
			}
		}
	}
	if pos != tr.PositiveSwitches() || neg != tr.NegativeSwitches() {
		t.Fatalf("ledger totals %d/%d vs tracker %d/%d",
			pos, neg, tr.PositiveSwitches(), tr.NegativeSwitches())
	}
}

// drawLabel converts a Bernoulli draw into a vote label.
func drawLabel(rng *xrand.RNG, p float64) votes.Label {
	if rng.Bernoulli(p) {
		return votes.Dirty
	}
	return votes.Clean
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
