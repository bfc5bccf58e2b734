package switchstat

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"dqm/internal/votes"
)

// seq builds a tracker over one item and feeds it the label sequence.
func seq(t *testing.T, labels []votes.Label, opts ...Option) *Tracker {
	t.Helper()
	tr := NewTracker(1, opts...)
	for _, l := range labels {
		tr.Add(0, l)
	}
	return tr
}

const (
	d = votes.Dirty
	c = votes.Clean
)

func TestTieFlipTraces(t *testing.T) {
	tests := []struct {
		name     string
		labels   []votes.Label
		switches int64
		pos, neg int64
		noops    int64
		nswitch  int64
	}{
		// Part (ii): a positive first vote is a switch.
		{"single dirty", []votes.Label{d}, 1, 1, 0, 0, 1},
		// A clean first vote confirms the default: a no-op.
		{"single clean", []votes.Label{c}, 0, 0, 0, 1, 0},
		// Tie at the second vote flips the default.
		{"clean then dirty", []votes.Label{c, d}, 1, 1, 0, 1, 1},
		// Dirty then clean: positive switch, then a tie flips it back.
		{"dirty then clean", []votes.Label{d, c}, 2, 1, 1, 0, 2},
		// Confirmations rediscover the switch.
		{"dirty thrice", []votes.Label{d, d, d}, 1, 1, 0, 0, 3},
		// D,C,D: switch, tie-switch, then 2-1 — no tie, rediscovery.
		{"oscillation", []votes.Label{d, c, d}, 2, 1, 1, 0, 3},
		// All votes before any n⁺ ≥ n⁻ point are no-ops.
		{"late dirty never ties", []votes.Label{c, c, d}, 0, 0, 0, 3, 0},
		// C,C,D,D: tie at the fourth vote (2-2) flips.
		{"tie after deficit", []votes.Label{c, c, d, d}, 1, 1, 0, 3, 1},
		// Full alternation: D(switch+) C(tie,switch-) D(2-1, rediscover)
		// C(2-2 tie, switch-? sign alternates → +? see below) — signs
		// alternate clean→dirty→clean→dirty: pos, neg, pos.
		{"long alternation", []votes.Label{d, c, d, c}, 3, 2, 1, 0, 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tr := seq(t, tt.labels)
			if got := tr.Switches(); got != tt.switches {
				t.Errorf("Switches = %d, want %d", got, tt.switches)
			}
			if got := tr.PositiveSwitches(); got != tt.pos {
				t.Errorf("PositiveSwitches = %d, want %d", got, tt.pos)
			}
			if got := tr.NegativeSwitches(); got != tt.neg {
				t.Errorf("NegativeSwitches = %d, want %d", got, tt.neg)
			}
			if got := tr.noops; got != tt.noops {
				t.Errorf("NoOps = %d, want %d", got, tt.noops)
			}
			if got := tr.NSwitch(); got != tt.nswitch {
				t.Errorf("NSwitch = %d, want %d", got, tt.nswitch)
			}
		})
	}
}

func TestFingerprintRediscovery(t *testing.T) {
	// D,D,D: one positive switch rediscovered twice → a tripleton.
	tr := seq(t, []votes.Label{d, d, d})
	fp := tr.FingerprintPositive()
	if fp.F(3) != 1 || fp.Species() != 1 {
		t.Fatalf("positive fingerprint = %v", fp)
	}
	if tr.FingerprintNegative().Species() != 0 {
		t.Fatal("unexpected negative switches")
	}

	// D,C,D: positive singleton frozen by the negative switch; the third
	// vote rediscovers the (most recent) negative switch.
	tr = seq(t, []votes.Label{d, c, d})
	fp, fn := tr.FingerprintPositive(), tr.FingerprintNegative()
	if fp.F(1) != 1 {
		t.Fatalf("positive fingerprint = %v", fp)
	}
	if fn.F(2) != 1 {
		t.Fatalf("negative fingerprint = %v", fn)
	}
	// Merged fingerprint sums both signs.
	all := tr.Fingerprint()
	if all.F(1) != 1 || all.F(2) != 1 || all.Species() != 2 {
		t.Fatalf("merged fingerprint = %v", all)
	}
}

func TestSignAlternation(t *testing.T) {
	// Signs must alternate per item starting positive, under any input.
	rng := rand.New(rand.NewPCG(1, 1))
	for trial := 0; trial < 200; trial++ {
		tr := NewTracker(1)
		for i := 0; i < 40; i++ {
			tr.Add(0, votes.Label(rng.IntN(2)))
		}
		pos, neg := tr.PositiveSwitches(), tr.NegativeSwitches()
		if pos != neg && pos != neg+1 {
			t.Fatalf("trial %d: pos=%d neg=%d violates alternation", trial, pos, neg)
		}
	}
}

func TestStrictMajorityPolicy(t *testing.T) {
	// D,C,D under strict majority: switch at v1 (1-0), tie sticky at v2
	// (rediscover), dirty majority again at v3 (rediscover).
	tr := seq(t, []votes.Label{d, c, d}, WithPolicy(PolicyStrictMajority))
	if got := tr.Switches(); got != 1 {
		t.Fatalf("Switches = %d, want 1", got)
	}
	if fp := tr.FingerprintPositive(); fp.F(3) != 1 {
		t.Fatalf("positive fingerprint = %v", fp)
	}
	// D,C,C: switch at v1, tie sticky at v2 (rediscover), clean majority at
	// v3 → negative switch.
	tr = seq(t, []votes.Label{d, c, c}, WithPolicy(PolicyStrictMajority))
	if tr.Switches() != 2 || tr.NegativeSwitches() != 1 {
		t.Fatalf("switches = %d (neg %d)", tr.Switches(), tr.NegativeSwitches())
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyTieFlip.String() != "tie-flip" || PolicyStrictMajority.String() != "strict-majority" {
		t.Fatal("policy strings wrong")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Fatal("unknown policy string wrong")
	}
}

func TestCSwitchCounts(t *testing.T) {
	tr := NewTracker(3)
	// Item 0: positive then negative switch; item 1: positive only;
	// item 2: never switches.
	tr.Add(0, d)
	tr.Add(0, c)
	tr.Add(1, d)
	tr.Add(2, c)
	if got := tr.CSwitch(); got != 2 {
		t.Fatalf("CSwitch = %d, want 2", got)
	}
	if got := tr.CSwitchPositive(); got != 2 {
		t.Fatalf("CSwitchPositive = %d, want 2", got)
	}
	if got := tr.CSwitchNegative(); got != 1 {
		t.Fatalf("CSwitchNegative = %d, want 1", got)
	}
	if itemSwitches(tr, 0) != 2 || itemSwitches(tr, 1) != 1 || itemSwitches(tr, 2) != 0 {
		t.Fatal("per-item switch counts wrong")
	}
}

func TestMajorityTracking(t *testing.T) {
	// The tracker's majority must match the response matrix's at any point.
	rng := rand.New(rand.NewPCG(2, 3))
	const n = 25
	tr := NewTracker(n)
	m := votes.NewMatrix(n)
	for i := 0; i < 600; i++ {
		v := votes.Vote{Item: rng.IntN(n), Label: votes.Label(rng.IntN(2))}
		tr.AddVote(v)
		m.Add(v)
		if tr.Majority() != m.Majority() {
			t.Fatalf("step %d: tracker majority %d != matrix %d", i, tr.Majority(), m.Majority())
		}
	}
}

// TestLedgerInvariants checks, on random streams, the structural identities
// the estimator relies on.
func TestLedgerInvariants(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 5))
	prop := func(seed uint64) bool {
		const n = 15
		tr := NewTracker(n)
		votesIn := int64(rng.IntN(200))
		for i := int64(0); i < votesIn; i++ {
			tr.Add(rng.IntN(n), votes.Label(rng.IntN(2)))
		}
		// 1. votes = no-ops + ledger mass.
		mass := tr.FingerprintPositive().Mass() + tr.FingerprintNegative().Mass()
		if tr.NSwitch() != mass || tr.totalVotes != tr.noops+mass {
			return false
		}
		// 2. species counts match switch counts.
		if tr.FingerprintPositive().Species() != tr.PositiveSwitches() {
			return false
		}
		if tr.FingerprintNegative().Species() != tr.NegativeSwitches() {
			return false
		}
		// 3. c bounds.
		if tr.CSwitch() > int64(n) || tr.CSwitchPositive() > tr.CSwitch() ||
			tr.CSwitchNegative() > tr.CSwitch() {
			return false
		}
		// 4. switches never exceed votes.
		return tr.Switches() <= tr.totalVotes
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConsensusStateMachine(t *testing.T) {
	tr := NewTracker(1)
	if dirty(itemSwitches(tr, 0)) {
		t.Fatal("items must start clean")
	}
	tr.Add(0, d)
	if !dirty(itemSwitches(tr, 0)) {
		t.Fatal("positive first vote must flip to dirty")
	}
	tr.Add(0, c) // tie → flip back
	if dirty(itemSwitches(tr, 0)) {
		t.Fatal("tie must flip the consensus")
	}
}

func TestReset(t *testing.T) {
	tr := NewTracker(2)
	tr.Add(0, d)
	tr.Add(0, c)
	tr.Add(1, c)
	tr.Reset()
	if tr.Switches() != 0 || tr.noops != 0 || tr.totalVotes != 0 ||
		tr.CSwitch() != 0 || tr.Majority() != 0 {
		t.Fatal("Reset left state")
	}
	if tr.Fingerprint().Species() != 0 {
		t.Fatal("Reset left fingerprint")
	}
	tr.Add(0, d)
	if tr.Switches() != 1 {
		t.Fatal("tracker unusable after reset")
	}
}

func TestCountSwitchesMatchesTracker(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 7))
	for _, policy := range []Policy{PolicyTieFlip, PolicyStrictMajority} {
		histories := make([][]votes.Label, 10)
		tr := NewTracker(10, WithPolicy(policy))
		for i := range histories {
			for j := 0; j < rng.IntN(30); j++ {
				l := votes.Label(rng.IntN(2))
				histories[i] = append(histories[i], l)
				tr.Add(i, l)
			}
		}
		if got := CountSwitches(histories, policy); got != tr.Switches() {
			t.Fatalf("policy %v: CountSwitches = %d, tracker = %d", policy, got, tr.Switches())
		}
	}
}

func TestNewTrackerPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTracker(-1) did not panic")
		}
	}()
	NewTracker(-1)
}

// TestEquation7ClosedForm verifies the incremental switch count against a
// direct evaluation of Equation 7: Σ_i [ Σ_{j≥2} 1[n⁺=n⁻ at j] + 1[first
// vote positive] ].
func TestEquation7ClosedForm(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 9))
	for trial := 0; trial < 100; trial++ {
		const n = 8
		histories := make([][]votes.Label, n)
		for i := range histories {
			for j := 0; j < rng.IntN(20); j++ {
				histories[i] = append(histories[i], votes.Label(rng.IntN(2)))
			}
		}
		var want int64
		for _, h := range histories {
			pos, neg := 0, 0
			for j, l := range h {
				if l == votes.Dirty {
					pos++
				} else {
					neg++
				}
				if j == 0 {
					if l == votes.Dirty {
						want++
					}
				} else if pos == neg {
					want++
				}
			}
		}
		if got := CountSwitches(histories, PolicyTieFlip); got != want {
			t.Fatalf("trial %d: CountSwitches = %d, closed form = %d", trial, got, want)
		}
	}
}

func TestItemLedgers(t *testing.T) {
	tr := NewTracker(2, WithItemLedgers())
	if !tr.RetainsLedgers() {
		t.Fatal("ledgers not enabled")
	}
	// Item 0: D (switch+), D (rediscover), C (tie → switch−).
	tr.Add(0, d)
	tr.Add(0, d)
	tr.Add(0, c)
	// Wait: after D,D the counts are 2-0; C makes 2-1, no tie. Add one
	// more C for the tie.
	tr.Add(0, c)
	ledger := tr.ItemLedger(0)
	if len(ledger) != 2 {
		t.Fatalf("ledger = %+v", ledger)
	}
	if !ledger[0].Positive || ledger[0].Freq != 3 {
		t.Fatalf("first event = %+v", ledger[0])
	}
	if ledger[1].Positive || ledger[1].Freq != 1 {
		t.Fatalf("second event = %+v", ledger[1])
	}
	if got := tr.ItemLedger(1); len(got) != 0 {
		t.Fatalf("untouched item has ledger %v", got)
	}
	if !tr.ItemMajorityDirty(0) {
		// 2 dirty vs 2 clean is a tie, not a dirty majority.
		t.Log("tie correctly not a majority")
	}
	tr.Reset()
	if len(tr.ItemLedger(0)) != 0 {
		t.Fatal("Reset left ledger entries")
	}
}

func TestLedgerDisabledReturnsNil(t *testing.T) {
	tr := NewTracker(1)
	tr.Add(0, d)
	if tr.ItemLedger(0) != nil {
		t.Fatal("ledger returned without retention")
	}
	if tr.RetainsLedgers() {
		t.Fatal("RetainsLedgers wrong")
	}
}
