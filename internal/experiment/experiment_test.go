package experiment

import (
	"math"
	"strings"
	"testing"

	"dqm/internal/crowd"
	"dqm/internal/dataset"
	"dqm/internal/estimator"
	"dqm/internal/votes"
)

func TestEvenCheckpoints(t *testing.T) {
	cps := EvenCheckpoints(100, 10)
	if len(cps) != 10 || cps[0] != 10 || cps[9] != 100 {
		t.Fatalf("checkpoints = %v", cps)
	}
	// Requesting more points than tasks yields one per task.
	cps = EvenCheckpoints(5, 50)
	if len(cps) != 5 || cps[4] != 5 {
		t.Fatalf("checkpoints = %v", cps)
	}
	if EvenCheckpoints(0, 10) != nil {
		t.Fatal("no tasks should give no checkpoints")
	}
	// Strictly ascending, no duplicates.
	cps = EvenCheckpoints(7, 3)
	for i := 1; i < len(cps); i++ {
		if cps[i] <= cps[i-1] {
			t.Fatalf("non-ascending checkpoints %v", cps)
		}
	}
}

func tinyRun(t *testing.T) *RunResult {
	t.Helper()
	pop := dataset.NewPlantedPopulation(50, 10, 1, "tiny")
	sim := crowd.NewSimulator(crowd.Config{
		Truth:        pop.Truth.IsDirty,
		N:            pop.N(),
		Profile:      crowd.Profile{FPRate: 0.02, FNRate: 0.1},
		ItemsPerTask: 5,
		Seed:         1,
	})
	return Run(RunConfig{
		Population:   pop,
		Tasks:        sim.Tasks(40),
		Checkpoints:  []int{10, 20, 40},
		Permutations: 3,
		Seed:         2,
		TrackNeeded:  true,
	})
}

func TestRunShapes(t *testing.T) {
	res := tinyRun(t)
	if len(res.X) != 3 || res.X[2] != 40 {
		t.Fatalf("X = %v", res.X)
	}
	for _, name := range []string{
		estimator.NameNominal, estimator.NameVoting, estimator.NameChao92,
		estimator.NameVChao92, estimator.NameSwitch,
		SeriesXiPos, SeriesXiNeg, SeriesNeededPos, SeriesNeededNeg,
	} {
		if got := len(res.Mean[name]); got != 3 {
			t.Fatalf("series %s has %d points", name, got)
		}
		if got := len(res.Std[name]); got != 3 {
			t.Fatalf("std %s has %d points", name, got)
		}
		if got := len(res.FinalEstimates[name]); got != 3 {
			t.Fatalf("finals %s has %d entries", name, got)
		}
	}
	if res.Truth != 10 {
		t.Fatalf("Truth = %v", res.Truth)
	}
	// NOMINAL is monotone in task count (votes only accumulate).
	nom := res.Mean[estimator.NameNominal]
	if nom[0] > nom[1] || nom[1] > nom[2] {
		t.Fatalf("NOMINAL not monotone: %v", nom)
	}
}

func TestRunPermutationInvariantAggregates(t *testing.T) {
	// NOMINAL at the final checkpoint sees all votes, so every permutation
	// must agree exactly: std = 0 at the last point.
	res := tinyRun(t)
	lastStd := res.Std[estimator.NameNominal][2]
	if lastStd != 0 {
		t.Fatalf("NOMINAL final std = %v, want 0", lastStd)
	}
	finals := res.FinalEstimates[estimator.NameVoting]
	for _, f := range finals[1:] {
		if f != finals[0] {
			t.Fatalf("VOTING finals differ across permutations: %v", finals)
		}
	}
}

func TestSRMSEAt(t *testing.T) {
	res := tinyRun(t)
	s := res.SRMSEAt(estimator.NameVoting)
	if s < 0 || math.IsNaN(s) {
		t.Fatalf("SRMSE = %v", s)
	}
}

func TestLookupPanicsOnUnknown(t *testing.T) {
	res := tinyRun(t)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown series did not panic")
		}
	}()
	res.Lookup("NOPE")
}

func TestNeededSwitches(t *testing.T) {
	truth := dataset.NewGroundTruth(4, []int{0, 1})
	m := votes.NewMatrix(4)
	// Item 0 (dirty): majority dirty → no switch needed.
	m.Add(votes.Vote{Item: 0, Label: votes.Dirty})
	// Item 1 (dirty): majority clean → positive switch needed.
	m.Add(votes.Vote{Item: 1, Label: votes.Clean})
	// Item 2 (clean): majority dirty → negative switch needed.
	m.Add(votes.Vote{Item: 2, Label: votes.Dirty})
	// Item 3 (clean): unseen → default clean, fine.
	pos, neg := neededSwitches(m, truth)
	if pos != 1 || neg != 1 {
		t.Fatalf("needed = %d,%d, want 1,1", pos, neg)
	}
}

func TestRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) < 12 {
		t.Fatalf("registry too small: %v", ids)
	}
	for _, id := range ids {
		if _, err := ByID(id); err != nil {
			t.Fatalf("ByID(%q): %v", id, err)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// fastOpts shrink every driver to a quick smoke configuration.
func fastOpts() Options {
	return Options{Seed: 3, Permutations: 2, TaskScale: 0.1}
}

func TestAllDriversProduceFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("driver sweep in -short mode")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			driver, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			figs := driver(fastOpts())
			if len(figs) == 0 {
				t.Fatal("driver produced no figures")
			}
			for _, f := range figs {
				if f.ID == "" || f.Title == "" {
					t.Fatalf("figure missing metadata: %+v", f)
				}
				if len(f.Series) == 0 && len(f.Consts) == 0 {
					t.Fatalf("figure %s has no content", f.ID)
				}
				for _, s := range f.Series {
					if len(s.X) != len(s.Mean) {
						t.Fatalf("figure %s series %s: x/mean length mismatch", f.ID, s.Name)
					}
					for _, v := range s.Mean {
						if math.IsNaN(v) {
							t.Fatalf("figure %s series %s contains NaN", f.ID, s.Name)
						}
					}
				}
			}
		})
	}
}

func TestFigureHelpers(t *testing.T) {
	f := &Figure{
		ID:     "t",
		Title:  "test",
		XLabel: "x",
		Series: []Series{{Name: "A", X: []float64{1, 2}, Mean: []float64{3, 4.5}, Std: []float64{0, 0.1}}},
		Consts: []Constant{{Name: "GT", Value: 42}},
	}
	if f.Const("GT") != 42 || f.Const("missing") != 0 {
		t.Fatal("Const lookup wrong")
	}
	if f.FindSeries("A") == nil || f.FindSeries("B") != nil {
		t.Fatal("FindSeries wrong")
	}
}

func TestEstimatorSeriesCanonicalOrder(t *testing.T) {
	f := &Figure{Series: []Series{
		{Name: SeriesXiPos},
		{Name: estimator.NameSwitch},
		{Name: estimator.NameVoting},
		{Name: "GROUND_TRUTH"},
	}}
	got := f.EstimatorSeries()
	if len(got) != 2 || got[0].Name != estimator.NameVoting || got[1].Name != estimator.NameSwitch {
		names := make([]string, len(got))
		for i, s := range got {
			names[i] = s.Name
		}
		t.Fatalf("EstimatorSeries = %v, want [VOTING SWITCH]", names)
	}
}

func TestFigureWriteTable(t *testing.T) {
	f := &Figure{
		ID:     "fig-t",
		Title:  "render test",
		XLabel: "tasks",
		Series: []Series{{Name: "A", X: []float64{1, 2}, Mean: []float64{3, 4.5}, Std: []float64{0, 0}}},
		Consts: []Constant{{Name: "GT", Value: 42}},
		Notes:  []string{"a note"},
	}
	var sb strings.Builder
	if err := f.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"fig-t", "render test", "GT", "42", "a note", "tasks", "A", "4.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestFigureWriteCSV(t *testing.T) {
	f := &Figure{
		ID:     "fig-t",
		Series: []Series{{Name: "A", X: []float64{1}, Mean: []float64{3}, Std: []float64{0.5}}},
	}
	var sb strings.Builder
	if err := f.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "x,A,A_std\n") {
		t.Fatalf("csv header wrong:\n%s", out)
	}
	if !strings.Contains(out, "1,3,0.5") {
		t.Fatalf("csv row wrong:\n%s", out)
	}
	// Empty figures render just a header-less x column.
	empty := &Figure{ID: "e"}
	sb.Reset()
	if err := empty.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		1:      "1",
		1.5:    "1.5",
		1.25:   "1.25",
		0:      "0",
		-2.5:   "-2.5",
		10.001: "10.001",
	}
	for v, want := range cases {
		if got := trimFloat(v); got != want {
			t.Fatalf("trimFloat(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}
	if o.perms() != 10 {
		t.Fatalf("default perms = %d", o.perms())
	}
	if o.scale(100) != 100 {
		t.Fatalf("default scale = %d", o.scale(100))
	}
	o = Options{Permutations: 3, TaskScale: 0.01}
	if o.perms() != 3 {
		t.Fatalf("perms = %d", o.perms())
	}
	if o.scale(100) != 1 {
		t.Fatalf("scaled tasks = %d, want floor of 1", o.scale(100))
	}
}

// TestSec321MatchesPaperShape verifies the worked example reproduces the
// paper's qualitative claim: without false positives the remaining estimate
// is small and close to the residual; with 1% false positives both the
// observed count and the remaining estimate inflate.
func TestSec321MatchesPaperShape(t *testing.T) {
	fig := Sec321(Options{Seed: 5})
	ex1c := fig.Const("EX1_C_NOMINAL")
	ex2c := fig.Const("EX2_C_NOMINAL")
	if ex1c < 60 || ex1c > 100 {
		t.Fatalf("EX1 nominal %v outside plausible range", ex1c)
	}
	if ex2c <= ex1c {
		t.Fatalf("false positives should inflate nominal: %v <= %v", ex2c, ex1c)
	}
	ex1rem := fig.Const("EX1_REMAINING_EST")
	total1 := ex1c + ex1rem
	if math.Abs(total1-100) > 20 {
		t.Fatalf("EX1 total %v should be near the true 100", total1)
	}
	total2 := ex2c + fig.Const("EX2_REMAINING_EST")
	if total2 <= total1 {
		t.Fatalf("EX2 total %v should exceed EX1 total %v", total2, total1)
	}
}

// TestFig7bChaoOverestimates asserts the paper's central sensitivity claim
// on a reduced run: with false positives, Chao92 lands far above the truth
// while SWITCH stays close.
func TestFig7bChaoOverestimates(t *testing.T) {
	fig := Fig7b(Options{Seed: 7, Permutations: 3, TaskScale: 0.5})
	chao := fig.FindSeries(estimator.NameChao92)
	sw := fig.FindSeries(estimator.NameSwitch)
	truth := fig.Const("GROUND_TRUTH")
	last := len(chao.Mean) - 1
	if chao.Mean[last] < truth*1.2 {
		t.Fatalf("Chao92 final %v does not overestimate truth %v", chao.Mean[last], truth)
	}
	if math.Abs(sw.Mean[last]-truth) > 0.25*truth {
		t.Fatalf("SWITCH final %v not within 25%% of truth %v", sw.Mean[last], truth)
	}
}

// TestFig6aOrderings pins Figure 6(a)'s measured result, as
// dqm-experiments -figure 6a prints it on seeds 42 and 7: at every precision
// below 1.0 Chao92 has the highest SRMSE of the four estimators and SWITCH's
// is above VOTING's; at precision 1.0 SWITCH's is below VOTING's.
func TestFig6aOrderings(t *testing.T) {
	for _, seed := range []uint64{42, 7} {
		fig := Fig6a(Options{Seed: seed})
		voting := fig.FindSeries(estimator.NameVoting)
		chao := fig.FindSeries(estimator.NameChao92)
		vchao := fig.FindSeries(estimator.NameVChao92)
		sw := fig.FindSeries(estimator.NameSwitch)
		for i, q := range voting.X {
			v, c, vc, s := voting.Mean[i], chao.Mean[i], vchao.Mean[i], sw.Mean[i]
			if q == 1 {
				if s >= v {
					t.Errorf("seed %d precision 1: SWITCH SRMSE %v not below VOTING's %v", seed, s, v)
				}
				continue
			}
			if c <= max(v, vc, s) {
				t.Errorf("seed %d precision %v: Chao92 SRMSE %v is not the highest (VOTING %v, V-CHAO %v, SWITCH %v)", seed, q, c, v, vc, s)
			}
			if s <= v {
				t.Errorf("seed %d precision %v: SWITCH SRMSE %v not above VOTING's %v", seed, q, s, v)
			}
		}
	}
}

// TestExtRedundancyMarginal checks the §1.2 claim quantitatively: at equal
// vote budget, the consensus-quality gap between fixed-quorum and random
// assignment stays below 5% of the population, and the SWITCH estimate from
// the random schedule is usable (within 25% of truth).
func TestExtRedundancyMarginal(t *testing.T) {
	fig := ExtRedundancy(Options{Seed: 9})
	n := 1000.0
	gap := fig.Const("RANDOM_MAJORITY_ERRS") - fig.Const("QUORUM_MAJORITY_ERRS")
	if gap > 0.05*n {
		t.Fatalf("redundancy gap %v items is not marginal", gap)
	}
	bias := fig.Const("RANDOM_SWITCH_BIAS")
	if bias < -25 || bias > 25 {
		t.Fatalf("random-schedule SWITCH bias %v outside ±25", bias)
	}
}

// TestExtQualityEMWins asserts the §1.2 comparison at full coverage: EM ends
// with no more label errors than the raw majority.
func TestExtQualityEMWins(t *testing.T) {
	fig := ExtQuality(Options{Seed: 11, TaskScale: 1})
	maj := fig.FindSeries("MAJORITY_ERRORS")
	em := fig.FindSeries("EM_ERRORS")
	last := len(maj.Mean) - 1
	if em.Mean[last] > maj.Mean[last] {
		t.Fatalf("EM ended worse than majority: %v vs %v", em.Mean[last], maj.Mean[last])
	}
	kappa := fig.FindSeries("FLEISS_KAPPA")
	if kappa.Mean[last] <= 0 {
		t.Fatalf("kappa %v not positive for a better-than-random crowd", kappa.Mean[last])
	}
}

// TestExtFatigueDegradesVoting: at the end of the run the fatigued crowd's
// majority is further from the truth than the fresh crowd's.
func TestExtFatigueDegradesVoting(t *testing.T) {
	fig := ExtFatigue(Options{Seed: 13, Permutations: 3})
	truth := fig.Const("GROUND_TRUTH")
	fresh := fig.FindSeries("VOTING_FRESH")
	tired := fig.FindSeries("VOTING_FATIGUED")
	last := len(fresh.Mean) - 1
	dFresh := math.Abs(fresh.Mean[last] - truth)
	dTired := math.Abs(tired.Mean[last] - truth)
	if dTired < dFresh {
		t.Fatalf("fatigue improved voting? fresh |Δ|=%v, fatigued |Δ|=%v", dFresh, dTired)
	}
}

// TestExtAlgorithmicConvergesToCeiling: the committee's estimates target its
// consensus ceiling, not the unknowable truth.
func TestExtAlgorithmicConvergesToCeiling(t *testing.T) {
	fig := ExtAlgorithmic(Options{Seed: 15, Permutations: 3})
	ceiling := fig.Const("CONSENSUS_CEILING")
	truth := fig.Const("GROUND_TRUTH")
	if ceiling >= truth {
		t.Fatalf("ceiling %v should be below truth %v (long tail exists)", ceiling, truth)
	}
	sw := fig.FindSeries("SWITCH")
	last := sw.Mean[len(sw.Mean)-1]
	if math.Abs(last-ceiling) > 0.15*ceiling {
		t.Fatalf("SWITCH %v did not converge to the ceiling %v", last, ceiling)
	}
}
