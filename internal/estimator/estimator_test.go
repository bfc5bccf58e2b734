package estimator

import (
	"math"
	"math/rand/v2"
	"testing"

	"dqm/internal/stats"
	"dqm/internal/switchstat"
	"dqm/internal/votes"
)

func TestNominalVoting(t *testing.T) {
	m := votes.NewMatrix(4)
	m.AddAll([]votes.Vote{
		{Item: 0, Label: votes.Dirty},
		{Item: 1, Label: votes.Dirty}, {Item: 1, Label: votes.Clean},
		{Item: 2, Label: votes.Clean},
	})
	if got := Nominal(m); got != 2 {
		t.Fatalf("Nominal = %v", got)
	}
	if got := Voting(m); got != 1 {
		t.Fatalf("Voting = %v", got)
	}
}

func TestExtrapolate(t *testing.T) {
	// The paper's running example: a 1% sample with 4 errors extrapolates
	// to 400 total.
	if got := Extrapolate(4, 10, 1000); got != 400 {
		t.Fatalf("Extrapolate = %v, want 400", got)
	}
	if got := Extrapolate(4, 0, 1000); got != 0 {
		t.Fatalf("zero sample = %v", got)
	}
	if got := Extrapolate(4, 10, 0); got != 0 {
		t.Fatalf("zero population = %v", got)
	}
}

func TestChao92MatchesStats(t *testing.T) {
	m := votes.NewMatrix(10)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 100; i++ {
		m.Add(votes.Vote{Item: rng.IntN(10), Label: votes.Label(rng.IntN(2))})
	}
	want := stats.Chao92(stats.Chao92Input{
		C: m.Nominal(), F: m.DirtyFingerprint(), N: m.PositiveVotes(),
	}).Estimate
	if got := Chao92(m); got != want {
		t.Fatalf("Chao92 = %v, want %v", got, want)
	}
	wantNoskew := stats.Chao92NoSkew(stats.Chao92Input{
		C: m.Nominal(), F: m.DirtyFingerprint(), N: m.PositiveVotes(),
	}).Estimate
	if got := Chao92(m, WithoutSkewCorrection()); got != wantNoskew {
		t.Fatalf("Chao92 noskew = %v, want %v", got, wantNoskew)
	}
}

func TestVChao92ShiftArithmetic(t *testing.T) {
	// Construct a matrix with known positive-vote fingerprint:
	// items 0,1 once; item 2 twice; item 3 thrice → f = {f1:2 f2:1 f3:1},
	// n⁺ = 7. Majority: all four items have dirty majorities.
	m := votes.NewMatrix(5)
	add := func(item, times int) {
		for k := 0; k < times; k++ {
			m.Add(votes.Vote{Item: item, Label: votes.Dirty})
		}
	}
	add(0, 1)
	add(1, 1)
	add(2, 2)
	add(3, 3)

	// Shift 1, count adjustment: f' = {f1:1 f2:1}, n = 7 − f1 = 5,
	// c = majority = 4.
	want := stats.Chao92(stats.Chao92Input{C: 4, F: stats.Freq{0, 1, 1}, N: 5}).Estimate
	if got := VChao92(m, VChao92Config{Shift: 1}); math.Abs(got-want) > 1e-9 {
		t.Fatalf("vChao92 s=1 = %v, want %v", got, want)
	}

	// Mass adjustment subtracts 1·f1 = 2 instead.
	wantMass := stats.Chao92(stats.Chao92Input{C: 4, F: stats.Freq{0, 1, 1}, N: 5}).Estimate
	if got := VChao92(m, VChao92Config{Shift: 1, MassAdjust: true}); math.Abs(got-wantMass) > 1e-9 {
		t.Fatalf("vChao92 s=1 mass = %v, want %v", got, wantMass)
	}

	// Shift 2: f' = {f1:1}, count adjustment n = 7 − (2+1) = 4.
	want2 := stats.Chao92(stats.Chao92Input{C: 4, F: stats.Freq{0, 1}, N: 4}).Estimate
	if got := VChao92(m, VChao92Config{Shift: 2}); math.Abs(got-want2) > 1e-9 {
		t.Fatalf("vChao92 s=2 = %v, want %v", got, want2)
	}
}

func TestVChao92PanicsOnNegativeShift(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative shift did not panic")
		}
	}()
	VChao92(votes.NewMatrix(1), VChao92Config{Shift: -1})
}

func TestTrendString(t *testing.T) {
	if TrendFlat.String() != "flat" || TrendUp.String() != "up" || TrendDown.String() != "down" {
		t.Fatal("trend strings wrong")
	}
	if Trend(9).String() != "Trend(9)" {
		t.Fatal("unknown trend string")
	}
	if NModeGlobal.String() != "global" || NModeSignMass.String() != "sign-mass" {
		t.Fatal("nmode strings wrong")
	}
	if NMode(9).String() != "NMode(9)" {
		t.Fatal("unknown nmode string")
	}
}

// feedTasks streams synthetic tasks into the estimator: each task takes
// itemsPerTask votes from the provided generator.
func feedTasks(e *SwitchEstimator, nTasks, itemsPerTask int, gen func() votes.Vote) {
	for t := 0; t < nTasks; t++ {
		for i := 0; i < itemsPerTask; i++ {
			e.Observe(gen())
		}
		e.EndTask()
	}
}

func TestSwitchTrendDetection(t *testing.T) {
	// Feed a stream where the majority count strictly grows: new items keep
	// being marked dirty.
	e := NewSwitch(4000, SwitchConfig{})
	next := 0
	feedTasks(e, 60, 10, func() votes.Vote {
		v := votes.Vote{Item: next, Label: votes.Dirty}
		next++
		return v
	})
	if got := e.Estimate().Trend; got != TrendUp {
		t.Fatalf("growing majority detected as %v", got)
	}

	// Now a stream where previously dirty items get cleaned: majority falls.
	e2 := NewSwitch(4000, SwitchConfig{})
	next = 0
	feedTasks(e2, 30, 10, func() votes.Vote { // mark 300 dirty
		v := votes.Vote{Item: next, Label: votes.Dirty}
		next++
		return v
	})
	cleanIdx := 0
	feedTasks(e2, 40, 10, func() votes.Vote { // clean them twice over
		v := votes.Vote{Item: cleanIdx % 300, Label: votes.Clean}
		cleanIdx++
		return v
	})
	if got := e2.Estimate().Trend; got != TrendDown {
		t.Fatalf("falling majority detected as %v", got)
	}
}

func TestSwitchTrendSticky(t *testing.T) {
	// After a long down trend, a perfectly flat tail keeps the down branch.
	e := NewSwitch(1000, SwitchConfig{})
	next := 0
	feedTasks(e, 20, 10, func() votes.Vote {
		v := votes.Vote{Item: next, Label: votes.Dirty}
		next++
		return v
	})
	cleanIdx := 0
	feedTasks(e, 60, 10, func() votes.Vote {
		v := votes.Vote{Item: cleanIdx % 200, Label: votes.Clean}
		cleanIdx++
		return v
	})
	if e.Estimate().Trend != TrendDown {
		t.Fatal("setup failed to establish a down trend")
	}
	// Flat tail: votes on one already-decided item.
	feedTasks(e, 30, 10, func() votes.Vote {
		return votes.Vote{Item: 999, Label: votes.Clean}
	})
	if got := e.Estimate().Trend; got != TrendDown {
		t.Fatalf("flat tail flipped trend to %v", got)
	}
}

func TestSwitchXiFloorsAtZero(t *testing.T) {
	e := NewSwitch(10, SwitchConfig{})
	e.Observe(votes.Vote{Item: 0, Label: votes.Dirty})
	e.EndTask()
	est := e.Estimate()
	if est.XiPos < 0 || est.XiNeg < 0 || est.RemainingSwitches < 0 {
		t.Fatalf("negative remaining estimates: %+v", est)
	}
}

func TestSwitchCapToPopulation(t *testing.T) {
	e := NewSwitch(20, SwitchConfig{CapToPopulation: true})
	// Many singleton positive switches → huge uncapped estimate.
	for i := 0; i < 20; i++ {
		e.Observe(votes.Vote{Item: i, Label: votes.Dirty})
	}
	e.EndTask()
	if got := e.Estimate().Total; got > 20 {
		t.Fatalf("capped total %v exceeds population", got)
	}
}

func TestSwitchEmptyStream(t *testing.T) {
	e := NewSwitch(5, SwitchConfig{})
	est := e.Estimate()
	if est.Total != 0 || est.XiPos != 0 || est.XiNeg != 0 {
		t.Fatalf("empty stream estimate: %+v", est)
	}
}

func TestSwitchReset(t *testing.T) {
	e := NewSwitch(5, SwitchConfig{})
	e.Observe(votes.Vote{Item: 0, Label: votes.Dirty})
	e.EndTask()
	e.Reset()
	if e.tasks != 0 {
		t.Fatal("Reset left task count")
	}
	est := e.Estimate()
	if est.Total != 0 || est.Majority != 0 {
		t.Fatalf("Reset left estimate state: %+v", est)
	}
}

// TestSwitchConvergesWithReliableWorkers is the §4.2 convergence property:
// with workers better than random, the SWITCH total approaches the true
// error count as votes accumulate.
func TestSwitchConvergesWithReliableWorkers(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	const (
		n      = 400
		nDirty = 60
	)
	dirty := make(map[int]bool, nDirty)
	for len(dirty) < nDirty {
		dirty[rng.IntN(n)] = true
	}
	e := NewSwitch(n, SwitchConfig{})
	for task := 0; task < 1200; task++ {
		for i := 0; i < 10; i++ {
			item := rng.IntN(n)
			isDirty := dirty[item]
			label := votes.Clean
			// 85% accurate workers.
			if isDirty != (rng.Float64() < 0.15) {
				label = votes.Dirty
			}
			e.Observe(votes.Vote{Item: item, Label: label})
		}
		e.EndTask()
	}
	got := e.Estimate().Total
	if math.Abs(got-nDirty) > 0.2*nDirty {
		t.Fatalf("SWITCH total %v not within 20%% of %d", got, nDirty)
	}
}

// TestSwitchPerfectWorkers: with infallible workers every estimator agrees
// with the truth once every item is covered.
func TestSwitchPerfectWorkers(t *testing.T) {
	const n = 100
	dirty := func(i int) bool { return i%10 == 0 } // 10 errors
	suite := NewSuite(n, SuiteConfig{})
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < n; i++ {
			label := votes.Clean
			if dirty(i) {
				label = votes.Dirty
			}
			suite.Observe(votes.Vote{Item: i, Worker: pass, Label: label})
			if i%10 == 9 {
				suite.EndTask()
			}
		}
	}
	est := suite.EstimateAll()
	if est.Nominal != 10 || est.Voting != 10 {
		t.Fatalf("descriptive estimates wrong: %+v", est)
	}
	if math.Abs(est.Switch.Total-10) > 1e-9 {
		t.Fatalf("SWITCH with perfect workers = %v, want 10", est.Switch.Total)
	}
	if est.Switch.RemainingSwitches > 1 {
		t.Fatalf("remaining switches %v with perfect workers", est.Switch.RemainingSwitches)
	}
	if math.Abs(est.Chao92-10) > 1 {
		t.Fatalf("Chao92 with perfect workers = %v", est.Chao92)
	}
}

func TestSwitchNModeSignMass(t *testing.T) {
	// Both modes must produce sane (non-negative, finite) estimates.
	rng := rand.New(rand.NewPCG(13, 14))
	for _, mode := range []NMode{NModeGlobal, NModeSignMass} {
		e := NewSwitch(50, SwitchConfig{NMode: mode})
		for i := 0; i < 500; i++ {
			e.Observe(votes.Vote{Item: rng.IntN(50), Label: votes.Label(rng.IntN(2))})
			if i%10 == 9 {
				e.EndTask()
			}
		}
		est := e.Estimate()
		if math.IsNaN(est.Total) || math.IsInf(est.Total, 0) || est.Total < 0 {
			t.Fatalf("mode %v: bad total %v", mode, est.Total)
		}
		if est.DPos < float64(e.tracker.PositiveSwitches()) {
			t.Fatalf("mode %v: D⁺ %v below observed switches", mode, est.DPos)
		}
	}
}

// TestSwitchPolicyOption: SwitchConfig.Policy reaches the tracker. A dirty
// vote and then a clean one tie item 0; only the default tie-flip rule
// counts the tie as a switch back to clean.
func TestSwitchPolicyOption(t *testing.T) {
	for _, tt := range []struct {
		policy switchstat.Policy
		want   int64
	}{{switchstat.PolicyTieFlip, 2}, {switchstat.PolicyStrictMajority, 1}} {
		e := NewSwitch(1, SwitchConfig{Policy: tt.policy})
		e.Observe(votes.Vote{Item: 0, Label: votes.Dirty})
		e.Observe(votes.Vote{Item: 0, Label: votes.Clean})
		if got := e.tracker.Switches(); got != tt.want {
			t.Fatalf("%v: %d switches, want %d: policy not propagated", tt.policy, got, tt.want)
		}
	}
}

func TestSuiteByName(t *testing.T) {
	e := Estimates{Nominal: 1, Voting: 2, Chao92: 3, VChao92: 4, Switch: SwitchEstimate{Total: 5}}
	cases := map[string]float64{
		NameNominal: 1, NameVoting: 2, NameChao92: 3, NameVChao92: 4, NameSwitch: 5, "bogus": 0,
	}
	for name, want := range cases {
		if got := e.ByName(name); got != want {
			t.Fatalf("ByName(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestSuiteDefaultShift(t *testing.T) {
	s := NewSuite(10, SuiteConfig{})
	if got := s.cfg.VChao92.Shift; got != 1 {
		t.Fatalf("default vChao92 shift = %d, want 1", got)
	}
}

func TestSuiteCapClampsChao(t *testing.T) {
	s := NewSuite(5, SuiteConfig{CapToPopulation: true})
	for i := 0; i < 5; i++ {
		s.Observe(votes.Vote{Item: i, Label: votes.Dirty})
	}
	s.EndTask()
	est := s.EstimateAll()
	if est.Chao92 > 5 || est.VChao92 > 5 || est.Switch.Total > 5 {
		t.Fatalf("cap violated: %+v", est)
	}
}

func TestSuiteReset(t *testing.T) {
	s := NewSuite(5, SuiteConfig{})
	s.ObserveTask([]votes.Vote{{Item: 0, Label: votes.Dirty}})
	s.Reset()
	est := s.EstimateAll()
	if est.Nominal != 0 || est.Switch.Total != 0 {
		t.Fatalf("Reset left estimates: %+v", est)
	}
}
