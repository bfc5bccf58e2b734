package dqm

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestRecorderBasics(t *testing.T) {
	rec := NewRecorder(10, Defaults())
	if rec.NumItems() != 10 || rec.TotalVotes() != 0 || rec.NumWorkers() != 0 {
		t.Fatal("fresh recorder not empty")
	}
	rec.Record(0, 1, true)
	rec.Record(0, 2, false)
	rec.Record(3, 1, true)
	rec.EndTask()

	if rec.TotalVotes() != 3 || rec.NumWorkers() != 2 {
		t.Fatalf("votes=%d workers=%d", rec.TotalVotes(), rec.NumWorkers())
	}
	e := rec.Estimates()
	if e.Nominal != 2 {
		t.Fatalf("Nominal = %v", e.Nominal)
	}
	if e.Voting != 1 { // item 0 is tied, item 3 is 1-0 dirty
		t.Fatalf("Voting = %v", e.Voting)
	}
	if !rec.MajorityDirty(3) || rec.MajorityDirty(0) {
		t.Fatal("MajorityDirty wrong")
	}
}

func TestRecordVote(t *testing.T) {
	rec := NewRecorder(5, Defaults())
	rec.RecordVote(Vote{Item: 2, Worker: 9, Dirty: true})
	if rec.Estimates().Nominal != 1 {
		t.Fatal("RecordVote did not register")
	}
}

func TestRemainingFloorsAtZero(t *testing.T) {
	e := Estimates{Switch: SwitchEstimate{Total: 7, Majority: 10}}
	if got := e.Remaining(); got != 0 {
		t.Fatalf("Remaining = %v", got)
	}
	e = Estimates{Switch: SwitchEstimate{Total: 14, Majority: 10}}
	if got := e.Remaining(); got != 4 {
		t.Fatalf("Remaining = %v", got)
	}
}

func TestDefaults(t *testing.T) {
	cfg := Defaults()
	if cfg.VChaoShift != 1 || cfg.TiePolicy != TieFlip || cfg.CapToPopulation {
		t.Fatalf("Defaults = %+v", cfg)
	}
}

func TestExtrapolate(t *testing.T) {
	if got := Extrapolate(4, 10, 1000); got != 400 {
		t.Fatalf("Extrapolate = %v", got)
	}
}

func TestCapToPopulation(t *testing.T) {
	cfg := Defaults()
	cfg.CapToPopulation = true
	rec := NewRecorder(10, cfg)
	for i := 0; i < 10; i++ {
		rec.Record(i, i, true) // all singletons: uncapped Chao92 explodes
	}
	rec.EndTask()
	e := rec.Estimates()
	if e.Chao92 > 10 || e.Switch.Total > 10 {
		t.Fatalf("cap violated: %+v", e)
	}
}

func TestTiePolicyAffectsSwitches(t *testing.T) {
	// Item 0 sees D then C: two switches under tie-flip (the tie flips the
	// consensus back) but one under strict majority (ties are sticky, the
	// second vote merely rediscovers). Item 1 sees a lone D. The switch
	// fingerprints — and hence the remaining-switch estimates — differ.
	run := func(p TiePolicy) float64 {
		cfg := Defaults()
		cfg.TiePolicy = p
		rec := NewRecorder(2, cfg)
		rec.Record(0, 0, true)
		rec.Record(1, 0, true)
		rec.EndTask()
		rec.Record(0, 1, false)
		rec.EndTask()
		return rec.Estimates().Switch.RemainingSwitches
	}
	if run(TieFlip) == run(StrictMajority) {
		t.Fatal("tie policy had no effect on switch estimation")
	}
}

// TestEndToEndConvergence is the headline integration test: a fallible crowd
// cleans a planted population and the SWITCH estimate lands near the truth
// while the majority count still undershoots.
func TestEndToEndConvergence(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 43))
	const (
		n      = 600
		nDirty = 80
	)
	dirty := make(map[int]bool, nDirty)
	for len(dirty) < nDirty {
		dirty[rng.IntN(n)] = true
	}
	rec := NewRecorder(n, Defaults())
	for task := 0; task < 700; task++ {
		worker := rng.IntN(50)
		for _, item := range rng.Perm(n)[:12] {
			vote := dirty[item]
			if vote && rng.Float64() < 0.25 {
				vote = false
			} else if !dirty[item] && rng.Float64() < 0.01 {
				vote = true
			}
			rec.Record(item, worker, vote)
		}
		rec.EndTask()
	}
	e := rec.Estimates()
	if math.Abs(e.Switch.Total-nDirty) > 0.2*nDirty {
		t.Fatalf("SWITCH %v not within 20%% of %d (voting %v)", e.Switch.Total, nDirty, e.Voting)
	}
	// The crowd misses 25% per view, so the majority should still trail the
	// truth — the gap SWITCH exists to close.
	if e.Voting >= float64(nDirty) {
		t.Skipf("majority already converged (%v); nothing to predict", e.Voting)
	}
	if e.Switch.Total < e.Voting {
		t.Fatalf("SWITCH %v below VOTING %v despite an increasing trend", e.Switch.Total, e.Voting)
	}
}

func TestRecorderReset(t *testing.T) {
	rec := NewRecorder(5, Defaults())
	rec.Record(0, 0, true)
	rec.EndTask()
	rec.Reset()
	if rec.TotalVotes() != 0 {
		t.Fatal("Reset left votes")
	}
	e := rec.Estimates()
	if e.Nominal != 0 || e.Switch.Total != 0 {
		t.Fatalf("Reset left estimates: %+v", e)
	}
}

func TestSwitchEstimateTrendFlags(t *testing.T) {
	rec := NewRecorder(2000, Defaults())
	// Keep marking fresh items dirty: trend up.
	for task := 0; task < 40; task++ {
		for i := 0; i < 10; i++ {
			rec.Record(task*10+i, task, true)
		}
		rec.EndTask()
	}
	e := rec.Estimates()
	if !e.Switch.TrendUp || e.Switch.TrendDown {
		t.Fatalf("trend flags wrong: %+v", e.Switch)
	}
}

func TestConfidenceIntervals(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	cfg := Defaults()
	cfg.TrackConfidence = true
	rec := NewRecorder(200, cfg)
	dirty := func(i int) bool { return i%8 == 0 } // 25 errors
	for task := 0; task < 250; task++ {
		worker := rng.IntN(30)
		for _, item := range rng.Perm(200)[:10] {
			vote := dirty(item)
			if vote && rng.Float64() < 0.15 {
				vote = false
			}
			rec.Record(item, worker, vote)
		}
		rec.EndTask()
	}
	sci, err := rec.SwitchCI(200, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	point := rec.Estimates().Switch.Total
	if !sci.Contains(point) {
		t.Fatalf("SWITCH CI [%v,%v] misses point %v", sci.Lo, sci.Hi, point)
	}
	cci, err := rec.Chao92CI(200, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if cci.Lo > cci.Hi || cci.Level != 0.95 {
		t.Fatalf("bad Chao92 CI %+v", cci)
	}
}

func TestSwitchCIRequiresTracking(t *testing.T) {
	rec := NewRecorder(10, Defaults())
	rec.Record(0, 0, true)
	rec.EndTask()
	if _, err := rec.SwitchCI(100, 0.95); err == nil {
		t.Fatal("SwitchCI without TrackConfidence accepted")
	}
}
