package estimator

import (
	"math"
	"testing"

	"dqm/internal/crowd"
	"dqm/internal/dataset"
	"dqm/internal/stats"
	"dqm/internal/votes"
	"dqm/internal/xrand"
)

// These tests inject the failure modes the paper warns about and assert the
// estimators degrade the way §6.2/§6.3 describe — SWITCH's guarantees hold
// exactly when workers are better than random, and not otherwise.

// runScenario streams nTasks of simulated work into a fresh suite.
func runScenario(t *testing.T, profile crowd.Profile, nTasks int, seed uint64) (*Suite, *dataset.Population) {
	t.Helper()
	pop := dataset.NewPlantedPopulation(500, 75, seed, "adversarial")
	sim := crowd.NewSimulator(crowd.Config{
		Truth:        pop.Truth.IsDirty,
		N:            pop.N(),
		Profile:      profile,
		ItemsPerTask: 10,
		Seed:         seed,
	})
	suite := NewSuite(pop.N(), SuiteConfig{})
	for _, task := range sim.Tasks(nTasks) {
		suite.ObserveTask(task.AppendVotes(nil))
	}
	return suite, pop
}

func TestAdversarialWorkersBreakConvergence(t *testing.T) {
	// Workers with 70% error rates are WORSE than random: the majority
	// converges to the inverse of the truth, and SWITCH follows it (its
	// §4.2 assumption is violated). The competent-crowd control converges.
	badSuite, pop := runScenario(t, crowd.FromPrecision(0.3), 2000, 1)
	goodSuite, _ := runScenario(t, crowd.FromPrecision(0.9), 2000, 1)
	truth := float64(pop.NumDirty())

	bad := badSuite.EstimateAll()
	good := goodSuite.EstimateAll()
	if math.Abs(good.Switch.Total-truth) > 0.15*truth {
		t.Fatalf("control crowd failed to converge: %v vs %v", good.Switch.Total, truth)
	}
	// The adversarial majority marks most CLEAN items dirty: far above truth.
	if bad.Voting < 2*truth {
		t.Fatalf("adversarial majority %v unexpectedly close to truth %v", bad.Voting, truth)
	}
	if math.Abs(bad.Switch.Total-truth) < 0.5*truth {
		t.Fatalf("SWITCH %v should NOT track truth %v under worse-than-random workers",
			bad.Switch.Total, truth)
	}
}

func TestCoinFlipWorkersYieldNoSignal(t *testing.T) {
	// Exactly-random workers: the majority hovers around N/2 and estimates
	// carry no information; the assertion is only that nothing panics, no
	// NaNs appear and SWITCH stays within the valid range.
	suite, pop := runScenario(t, crowd.FromPrecision(0.5), 800, 2)
	est := suite.EstimateAll()
	for name, v := range map[string]float64{
		"nominal": est.Nominal, "voting": est.Voting,
		"chao92": est.Chao92, "vchao": est.VChao92, "switch": est.Switch.Total,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Fatalf("%s = %v under coin-flip workers", name, v)
		}
	}
	// Majority of a fair coin over many votes ≈ half the population.
	if est.Voting < 0.3*float64(pop.N()) || est.Voting > 0.7*float64(pop.N()) {
		t.Fatalf("coin-flip majority %v outside the expected band", est.Voting)
	}
}

func TestSingletonErrorEntanglement(t *testing.T) {
	// The §3.2.2 phenomenon in isolation: adding a handful of false-positive
	// singletons inflates Chao92 disproportionately.
	base := votes.NewMatrix(1000)
	rng := xrand.New(3)
	// 80 true errors, each confirmed 2–4 times.
	for i := 0; i < 80; i++ {
		k := 2 + rng.IntN(3)
		for j := 0; j < k; j++ {
			base.Add(votes.Vote{Item: i, Worker: j, Label: votes.Dirty})
		}
	}
	clean := Chao92(base)
	vcClean := VChao92(base, VChao92Config{Shift: 1})

	// Now 20 false positives: one dirty vote each (singletons in the
	// positive-vote fingerprint) plus two clean counter-votes, so the
	// majority has already rejected them. Chao92 keys on c_nominal and f₁
	// and stays inflated; vChao92 keys on c_majority and the shifted
	// fingerprint and is immune.
	for i := 900; i < 920; i++ {
		base.Add(votes.Vote{Item: i, Worker: 9, Label: votes.Dirty})
		base.Add(votes.Vote{Item: i, Worker: 10, Label: votes.Clean})
		base.Add(votes.Vote{Item: i, Worker: 11, Label: votes.Clean})
	}
	polluted := Chao92(base)
	// 20 singletons add 20 observed species PLUS an inflated remaining-mass
	// term — the estimate must move by clearly more than the 20 new items
	// (the paper's Example 2 measures ≈30% inflation for ≈1% FPs).
	if polluted < clean+25 {
		t.Fatalf("20 FP singletons moved Chao92 only %v → %v; entanglement not visible",
			clean, polluted)
	}
	// vChao92 with shift 1 is invariant to the pollution: the FP items are
	// not in c_majority, and their singletons fall out of the shifted
	// fingerprint — the estimate barely moves, while Chao92's jumped.
	vc := VChao92(base, VChao92Config{Shift: 1})
	if math.Abs(vc-vcClean) > 5 {
		t.Fatalf("vChao92 moved %v → %v under FP pollution (Chao92 moved %v → %v)",
			vcClean, vc, clean, polluted)
	}
}

func TestEstimatorsNeverNegativeOrNaN(t *testing.T) {
	// Fuzz the suite with random vote streams; all estimates stay finite
	// and non-negative at every checkpoint.
	rng := xrand.New(4)
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.IntN(50)
		suite := NewSuite(n, SuiteConfig{})
		steps := rng.IntN(300)
		for i := 0; i < steps; i++ {
			suite.Observe(votes.Vote{
				Item:   rng.IntN(n),
				Worker: rng.IntN(5),
				Label:  votes.Label(rng.IntN(2)),
			})
			if rng.Bernoulli(0.1) {
				suite.EndTask()
			}
			if rng.Bernoulli(0.05) {
				est := suite.EstimateAll()
				for _, v := range []float64{est.Nominal, est.Voting, est.Chao92, est.VChao92,
					est.Switch.Total, est.Switch.XiPos, est.Switch.XiNeg, est.Switch.RemainingSwitches} {
					if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
						t.Fatalf("trial %d: invalid estimate %v in %+v", trial, v, est)
					}
				}
			}
		}
	}
}

func TestSaturatedFingerprintStaysFinite(t *testing.T) {
	// All-singleton fingerprints give zero coverage; the capped blow-up
	// path must be exercised without infinities.
	m := votes.NewMatrix(100)
	for i := 0; i < 100; i++ {
		m.Add(votes.Vote{Item: i, Worker: i, Label: votes.Dirty})
	}
	got := Chao92(m)
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("saturated Chao92 = %v", got)
	}
	in := stats.Chao92Input{C: m.Nominal(), F: m.DirtyFingerprint(), N: m.PositiveVotes()}
	if r := stats.Chao92(in); !r.Saturated {
		t.Fatal("saturation not flagged")
	}
}
