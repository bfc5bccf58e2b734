package quality

import (
	"math"
	"testing"

	"dqm/internal/crowd"
	"dqm/internal/dataset"
	"dqm/internal/votes"
	"dqm/internal/xrand"
)

// buildMatrix simulates a crowd over a planted population and returns the
// filled matrix plus the truth.
func buildMatrix(t *testing.T, fp, fn float64, tasks int) (*votes.Matrix, *dataset.Population) {
	t.Helper()
	pop := dataset.NewPlantedPopulation(200, 40, 7, "quality")
	sim := crowd.NewSimulator(crowd.Config{
		Truth:        pop.Truth.IsDirty,
		N:            pop.N(),
		Profile:      crowd.Profile{FPRate: fp, FNRate: fn, Jitter: 0.3},
		ItemsPerTask: 10,
		PoolSize:     15,
		Seed:         7,
	})
	m := votes.NewMatrix(pop.N(), votes.WithHistory())
	for _, task := range sim.Tasks(tasks) {
		for _, v := range task.Votes() {
			m.Add(v)
		}
	}
	return m, pop
}

func TestEMBeatsOrMatchesMajority(t *testing.T) {
	m, pop := buildMatrix(t, 0.05, 0.25, 300)
	res, err := EM(m, EMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	labels := res.Labels()

	majErrs, emErrs := 0, 0
	for i := 0; i < pop.N(); i++ {
		truth := pop.Truth.IsDirty(i)
		if m.MajorityDirty(i) != truth {
			majErrs++
		}
		if labels[i] != truth {
			emErrs++
		}
	}
	if emErrs > majErrs {
		t.Fatalf("EM made %d label errors vs majority's %d", emErrs, majErrs)
	}
}

func TestEMRecoversSkills(t *testing.T) {
	m, _ := buildMatrix(t, 0.05, 0.25, 500)
	res, err := EM(m, EMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Skills) == 0 {
		t.Fatal("no skills estimated")
	}
	// Population-level skill estimates should be near the configured rates:
	// sensitivity ≈ 0.75, specificity ≈ 0.95.
	var sens, spec, w float64
	for _, sk := range res.Skills {
		sens += sk.Sensitivity * float64(sk.Votes)
		spec += sk.Specificity * float64(sk.Votes)
		w += float64(sk.Votes)
		if !sk.BetterThanRandom() {
			t.Fatalf("worker %d estimated worse than random: %+v", sk.Worker, sk)
		}
	}
	sens, spec = sens/w, spec/w
	if math.Abs(sens-0.75) > 0.12 {
		t.Fatalf("mean sensitivity %v, want ≈0.75", sens)
	}
	if math.Abs(spec-0.95) > 0.05 {
		t.Fatalf("mean specificity %v, want ≈0.95", spec)
	}
	// The prior should approach the true dirty fraction (0.2).
	if math.Abs(res.Prior-0.2) > 0.1 {
		t.Fatalf("prior %v, want ≈0.2", res.Prior)
	}
}

func TestEMConverges(t *testing.T) {
	m, _ := buildMatrix(t, 0.02, 0.1, 200)
	res, err := EM(m, EMConfig{MaxIterations: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= 100 {
		t.Fatalf("EM did not converge within 100 iterations")
	}
	for i, p := range res.Posterior {
		if math.IsNaN(p) || p < 0 || p > 1 {
			t.Fatalf("posterior[%d] = %v", i, p)
		}
	}
}

func TestEMEmptyAndUnvoted(t *testing.T) {
	res, err := EM(votes.NewMatrix(0), EMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Posterior) != 0 {
		t.Fatal("empty matrix should give empty posteriors")
	}
	// Items without votes keep the 0.5 prior.
	m := votes.NewMatrix(3, votes.WithHistory())
	m.Add(votes.Vote{Item: 0, Worker: 0, Label: votes.Dirty})
	res, err = EM(m, EMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Posterior[1] != 0.5 || res.Posterior[2] != 0.5 {
		t.Fatalf("unvoted items moved off the prior: %v", res.Posterior)
	}
	if res.Posterior[0] <= 0.5 {
		t.Fatalf("voted-dirty item posterior %v not above prior", res.Posterior[0])
	}
}

func TestEMRequiresHistory(t *testing.T) {
	m := votes.NewMatrix(2)
	m.Add(votes.Vote{Item: 0, Worker: 0, Label: votes.Dirty})
	if _, err := EM(m, EMConfig{}); err == nil {
		t.Fatal("EM accepted a history-less matrix")
	}
}

func TestWorkerSkillHelpers(t *testing.T) {
	sk := WorkerSkill{Sensitivity: 0.9, Specificity: 0.7}
	if math.Abs(sk.Accuracy()-0.8) > 1e-12 {
		t.Fatalf("Accuracy = %v", sk.Accuracy())
	}
	if !sk.BetterThanRandom() {
		t.Fatal("informative worker flagged as random")
	}
	if (WorkerSkill{Sensitivity: 0.5, Specificity: 0.5}).BetterThanRandom() {
		t.Fatal("coin-flip worker flagged as informative")
	}
}

func TestObservedAgreement(t *testing.T) {
	m := votes.NewMatrix(2)
	// Item 0: 3 dirty votes → perfect agreement.
	for w := 0; w < 3; w++ {
		m.Add(votes.Vote{Item: 0, Worker: w, Label: votes.Dirty})
	}
	if got := ObservedAgreement(m); got != 1 {
		t.Fatalf("unanimous agreement = %v", got)
	}
	// Item 1: 1 dirty, 1 clean → 0 agreement; mean = 0.5.
	m.Add(votes.Vote{Item: 1, Worker: 0, Label: votes.Dirty})
	m.Add(votes.Vote{Item: 1, Worker: 1, Label: votes.Clean})
	if got := ObservedAgreement(m); got != 0.5 {
		t.Fatalf("mean agreement = %v", got)
	}
	if got := ObservedAgreement(votes.NewMatrix(5)); got != 0 {
		t.Fatalf("empty agreement = %v", got)
	}
}

func TestFleissKappaRegimes(t *testing.T) {
	// Perfect raters on a mixed population → high kappa.
	perfect := votes.NewMatrix(10)
	for i := 0; i < 10; i++ {
		label := votes.Clean
		if i < 5 {
			label = votes.Dirty
		}
		for w := 0; w < 4; w++ {
			perfect.Add(votes.Vote{Item: i, Worker: w, Label: label})
		}
	}
	if got := FleissKappa(perfect); got < 0.99 {
		t.Fatalf("perfect-rater kappa = %v", got)
	}

	// Coin-flip raters → kappa near 0.
	rng := xrand.New(1)
	random := votes.NewMatrix(200)
	for i := 0; i < 200; i++ {
		for w := 0; w < 6; w++ {
			random.Add(votes.Vote{Item: i, Worker: w, Label: votes.Label(rng.IntN(2))})
		}
	}
	if got := FleissKappa(random); math.Abs(got) > 0.08 {
		t.Fatalf("random-rater kappa = %v, want ≈0", got)
	}
	if got := FleissKappa(votes.NewMatrix(5)); got != 0 {
		t.Fatalf("empty kappa = %v", got)
	}
}

func TestFleissKappaOrdersCrowdsByQuality(t *testing.T) {
	good, _ := buildMatrix(t, 0.02, 0.05, 400)
	bad, _ := buildMatrix(t, 0.3, 0.4, 400)
	kGood, kBad := FleissKappa(good), FleissKappa(bad)
	if kGood <= kBad {
		t.Fatalf("kappa failed to separate crowds: good %v vs bad %v", kGood, kBad)
	}
}

func TestWorkerAccuracyVsConsensus(t *testing.T) {
	m := votes.NewMatrix(4, votes.WithHistory())
	// Three workers; worker 2 always disagrees with the other two.
	for i := 0; i < 4; i++ {
		m.Add(votes.Vote{Item: i, Worker: 0, Label: votes.Dirty})
		m.Add(votes.Vote{Item: i, Worker: 1, Label: votes.Dirty})
		m.Add(votes.Vote{Item: i, Worker: 2, Label: votes.Clean})
	}
	acc := WorkerAccuracyVsConsensus(m)
	if acc[0] != 1 || acc[1] != 1 {
		t.Fatalf("majority workers scored %v", acc)
	}
	if acc[2] != 0 {
		t.Fatalf("contrarian worker scored %v", acc[2])
	}
	// Single-vote items are excluded.
	m2 := votes.NewMatrix(1, votes.WithHistory())
	m2.Add(votes.Vote{Item: 0, Worker: 5, Label: votes.Dirty})
	if got := WorkerAccuracyVsConsensus(m2); len(got) != 0 {
		t.Fatalf("lone votes scored: %v", got)
	}
}

func TestKappaAndAgreementBounds(t *testing.T) {
	// Property: on arbitrary vote streams, kappa ∈ [-1, 1] and observed
	// agreement ∈ [0, 1].
	rng := xrand.New(99)
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.IntN(40)
		m := votes.NewMatrix(n)
		nv := rng.IntN(300)
		for i := 0; i < nv; i++ {
			m.Add(votes.Vote{
				Item:   rng.IntN(n),
				Worker: rng.IntN(6),
				Label:  votes.Label(rng.IntN(2)),
			})
		}
		if k := FleissKappa(m); k < -1.0000001 || k > 1.0000001 || math.IsNaN(k) {
			t.Fatalf("trial %d: kappa = %v", trial, k)
		}
		if a := ObservedAgreement(m); a < 0 || a > 1 || math.IsNaN(a) {
			t.Fatalf("trial %d: agreement = %v", trial, a)
		}
	}
}

func TestEMPosteriorsMonotoneInVotes(t *testing.T) {
	// More dirty votes on an item ⇒ higher posterior, all else equal.
	m := votes.NewMatrix(3, votes.WithHistory())
	for w := 0; w < 4; w++ {
		m.Add(votes.Vote{Item: 0, Worker: w, Label: votes.Dirty})
	}
	m.Add(votes.Vote{Item: 1, Worker: 0, Label: votes.Dirty})
	m.Add(votes.Vote{Item: 1, Worker: 1, Label: votes.Clean})
	for w := 0; w < 4; w++ {
		m.Add(votes.Vote{Item: 2, Worker: w, Label: votes.Clean})
	}
	res, err := EM(m, EMConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Posterior
	if !(p[0] > p[1] && p[1] > p[2]) {
		t.Fatalf("posteriors not ordered: %v", p)
	}
}

// TestReadersSeeWideCounts: ObservedAgreement and FleissKappa read per-item
// counts through the matrix accessors, so an item past votes.MaxVotes16
// votes (here 60,000 dirty and 10,000 clean) counts in full.
func TestReadersSeeWideCounts(t *testing.T) {
	m := votes.NewMatrix(2)
	for k := 0; k < 70000; k++ {
		label := votes.Dirty
		if k >= 60000 {
			label = votes.Clean
		}
		m.Add(votes.Vote{Item: 0, Worker: k % 7, Label: label})
	}
	m.AddAll([]votes.Vote{
		{Item: 1, Worker: 0, Label: votes.Dirty},
		{Item: 1, Worker: 1, Label: votes.Dirty},
		{Item: 1, Worker: 2, Label: votes.Clean},
	})
	if m.Rows().Bits() != 32 || m.Pos(0) != 60000 || m.Seen(0) != 70000 {
		t.Fatalf("matrix: %d-bit rows, n⁺_0 %d, n_0 %d", m.Rows().Bits(), m.Pos(0), m.Seen(0))
	}
	pairs := func(k float64) float64 { return k * (k - 1) }
	agree0 := (pairs(60000) + pairs(10000)) / pairs(70000)
	agree1 := (pairs(2) + pairs(1)) / pairs(3)
	if got, want := ObservedAgreement(m), (agree0+agree1)/2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("ObservedAgreement = %v, want %v", got, want)
	}
	pDirty := 60002.0 / 70003
	pe := pDirty*pDirty + (1-pDirty)*(1-pDirty)
	if got, want := FleissKappa(m), ((agree0+agree1)/2-pe)/(1-pe); math.Abs(got-want) > 1e-12 {
		t.Fatalf("FleissKappa = %v, want %v", got, want)
	}
}
