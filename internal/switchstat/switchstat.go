// Package switchstat implements the consensus-switch machinery of Section 4.
//
// Problem 2 reframes data-quality estimation: instead of counting dirty
// items, count how many majority-consensus decisions are still expected to
// flip. The Tracker ingests the same vote stream as the response matrix and
// maintains, per Equation 7:
//
//   - switch events: (i) a tie in the running votes n⁺_i = n⁻_i flips the
//     consensus, and (ii) a positive first vote flips the initial "clean"
//     default;
//   - the switch species ledger: each switch event is born a singleton, and
//     every subsequent vote on the item that does not create a new switch
//     "rediscovers" the item's most recent switch (singleton → doubleton → …);
//   - the no-op adjustment: votes before an item's first switch confirm the
//     default label, discover nothing, and are excluded from n_switch
//     (the paper's n_switch = n − Σ_i (argmin_j{n⁺ ≥ n⁻} − 1));
//   - the positive/negative split: a flip clean→dirty is a positive switch,
//     dirty→clean a negative one. Because every item starts clean and the
//     consensus alternates at each flip, switch signs alternate per item
//     starting with positive.
//
// The paper notes the counting definition admits "various policies (e.g.,
// tie-breaking)"; Policy selects between the literal Equation-7 rule and a
// strict-majority-crossing variant used in the ablation benchmarks.
package switchstat

import (
	"fmt"

	"dqm/internal/stats"
	"dqm/internal/votes"
)

// Policy selects the switch-counting rule.
type Policy int

const (
	// PolicyTieFlip is Equation 7 verbatim: a switch is counted at every
	// running-count tie (and at a positive first vote), and the consensus
	// state flips there.
	PolicyTieFlip Policy = iota
	// PolicyStrictMajority counts a switch only when the strict majority
	// (n⁺ > n⁻ or n⁻ > n⁺) disagrees with the current consensus state; ties
	// keep the state. This never counts a tie that immediately reverts.
	PolicyStrictMajority
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyTieFlip:
		return "tie-flip"
	case PolicyStrictMajority:
		return "strict-majority"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Tracker ingests votes and maintains switch statistics incrementally.
// All observations are O(1); fingerprint reads are O(max frequency).
type Tracker struct {
	policy Policy
	// rows holds each item's vote counts (n⁺_i, n⁻_i) and switch state.
	// Switch signs alternate per item starting positive, so the switch count
	// alone determines the rest: switch k is positive iff k is odd, the item
	// has ceil(events/2) positive and floor(events/2) negative switches, and
	// since every switch flips a consensus that starts clean, the consensus
	// is dirty iff events is odd. A standalone tracker owns its rows and
	// counts every vote itself; a tracker built with NewTrackerOn shares the
	// rows of a response matrix that ingests the same stream and has counted
	// each vote before the tracker sees it. Either way the rows have widened
	// for a vote before the tracker stores the switch state it leads to.
	rows   *votes.Rows
	shared bool

	retainLedgers bool
	ledgers       [][]SwitchEvent

	// Per-sign fingerprints with running aggregates: the switch estimator
	// reads f₁/pair-sum/mass per sign (and merged, by additivity) in O(1)
	// instead of walking the frequency classes on every estimate.
	fPos, fNeg stats.RunningFreq

	totalVotes int64
	noops      int64
	posSw      int64
	negSw      int64
	cPos       int64 // items with ≥1 positive switch
	cNeg       int64 // items with ≥1 negative switch
	cAny       int64 // items with ≥1 switch of either sign
	cMajority  int64 // items whose strict vote majority is dirty
}

// Option configures a Tracker.
type Option func(*Tracker)

// WithPolicy selects the switch-counting rule (default PolicyTieFlip).
func WithPolicy(p Policy) Option {
	return func(t *Tracker) { t.policy = p }
}

// NewTracker creates a tracker over n items, all starting with the default
// "clean" consensus. It owns its rows and counts every vote itself.
func NewTracker(n int, opts ...Option) *Tracker {
	if n < 0 {
		panic(fmt.Sprintf("switchstat: negative item count %d", n))
	}
	return newTracker(votes.NewRows(n), false, opts)
}

// NewTrackerOn creates a tracker over m's items that keeps its switch state
// in m's rows, beside the vote counts it reads there, instead of keeping rows
// of its own. Every vote must be added to m before it is added to the
// tracker, and the tracker is reset together with m. A row holds one
// tracker's switch state, so build at most one tracker on m.
func NewTrackerOn(m *votes.Matrix, opts ...Option) *Tracker {
	return newTracker(m.Rows(), true, opts)
}

func newTracker(rows *votes.Rows, shared bool, opts []Option) *Tracker {
	t := &Tracker{
		rows:   rows,
		shared: shared,
		fPos:   stats.NewRunningFreq(stats.Freq{0}),
		fNeg:   stats.NewRunningFreq(stats.Freq{0}),
	}
	for _, o := range opts {
		o(t)
	}
	if t.retainLedgers {
		t.ledgers = make([][]SwitchEvent, rows.Len())
	}
	return t
}

// NumItems returns the number of tracked items.
func (t *Tracker) NumItems() int { return t.rows.Len() }

// Policy returns the active counting rule.
func (t *Tracker) Policy() Policy { return t.policy }

// Add ingests one vote on item with the given label.
func (t *Tracker) Add(item int, label votes.Label) {
	var pos, neg int // the item's counts including this vote
	if t.shared {
		pos, neg = t.rows.Get(item)
	} else {
		pos, neg = t.rows.Add(item, label)
	}
	dirtyVote := label == votes.Dirty
	// One vote moves the strict majority only across a tie: a dirty vote
	// makes it dirty when it leaves n⁺ = n⁻ + 1, a clean vote unmakes it when
	// it leaves n⁺ = n⁻.
	if dirtyVote && pos == neg+1 {
		t.cMajority++
	} else if !dirtyVote && pos == neg {
		t.cMajority--
	}
	t.totalVotes++

	lastFreq, events := t.rows.Switch(item)
	flip := false
	switch t.policy {
	case PolicyTieFlip:
		// Part (ii): a positive first vote flips the clean default.
		// Part (i): any subsequent tie flips the consensus.
		if pos+neg == 1 {
			flip = dirtyVote
		} else {
			flip = pos == neg
		}
	case PolicyStrictMajority:
		if pos > neg && !dirty(events) {
			flip = true
		} else if neg > pos && dirty(events) {
			flip = true
		}
	}

	switch {
	case flip:
		events++
		t.recordSwitch(item, events)
		lastFreq = 1
	case events > 0:
		t.rediscover(item, lastFreq, events)
		lastFreq++
	default:
		// A vote that confirms the default label before the first switch:
		// a no-op that contributes to neither the fingerprint nor n_switch.
		t.noops++
		return
	}
	t.rows.SetSwitch(item, lastFreq, events)
}

// dirty reports the consensus state after events switches, which is also the
// sign of the most recent switch (true = positive).
func dirty(events int) bool { return events&1 == 1 }

// AddVote ingests a votes.Vote, ignoring the worker identity (switch
// statistics are worker-anonymous).
func (t *Tracker) AddVote(v votes.Vote) { t.Add(v.Item, v.Label) }

// recordSwitch counts item's events-th switch, born a singleton.
func (t *Tracker) recordSwitch(item, events int) {
	positive := dirty(events) // flipped into dirty ⇒ clean→dirty ⇒ positive switch
	if positive {
		t.posSw++
		if events == 1 { // the item's first switch, and first positive one
			t.cAny++
			t.cPos++
		}
		t.fPos.Add(1, 1)
	} else {
		t.negSw++
		if events == 2 { // the item's first negative switch
			t.cNeg++
		}
		t.fNeg.Add(1, 1)
	}
	if t.retainLedgers {
		t.ledgers[item] = append(t.ledgers[item], SwitchEvent{Positive: positive, Freq: 1})
	}
}

// rediscover moves item's most recent switch, in class lastFreq of the sign
// events gives it, up one frequency class.
func (t *Tracker) rediscover(item, lastFreq, events int) {
	if dirty(events) {
		t.fPos.Promote(lastFreq)
	} else {
		t.fNeg.Promote(lastFreq)
	}
	if t.retainLedgers {
		l := t.ledgers[item]
		l[len(l)-1].Freq++
	}
}

// TotalVotes returns the number of votes ingested.
func (t *Tracker) TotalVotes() int64 { return t.totalVotes }

// NoOps returns the number of default-confirming votes seen before each
// item's first switch (the quantity subtracted from n in Section 4.2).
func (t *Tracker) NoOps() int64 { return t.noops }

// NSwitch returns n_switch = TotalVotes − NoOps, the observation count used
// by the switch estimator. It equals the total mass of the switch ledger.
func (t *Tracker) NSwitch() int64 { return t.totalVotes - t.noops }

// Switches returns switch(I), the total number of switch events observed.
func (t *Tracker) Switches() int64 { return t.posSw + t.negSw }

// PositiveSwitches returns the number of clean→dirty switch events.
func (t *Tracker) PositiveSwitches() int64 { return t.posSw }

// NegativeSwitches returns the number of dirty→clean switch events.
func (t *Tracker) NegativeSwitches() int64 { return t.negSw }

// CSwitch returns c_switch = Σ_i 1[switch(I_i) > 0], the number of records
// with at least one consensus flip.
func (t *Tracker) CSwitch() int64 { return t.cAny }

// Majority returns c_majority over the ingested votes, the VOTING baseline
// the switch estimator corrects (Section 4.3).
func (t *Tracker) Majority() int64 { return t.cMajority }

// CSwitchPositive returns the number of records with ≥1 positive switch.
func (t *Tracker) CSwitchPositive() int64 { return t.cPos }

// CSwitchNegative returns the number of records with ≥1 negative switch.
func (t *Tracker) CSwitchNegative() int64 { return t.cNeg }

// Fingerprint returns the f′-statistics over all switch species (positive
// and negative merged).
func (t *Tracker) Fingerprint() stats.Freq { return t.FingerprintInto(nil) }

// FingerprintInto merges both sign fingerprints into dst (grown as needed)
// and returns it, letting streaming estimators reuse one scratch buffer per
// estimate instead of allocating a merge each time.
func (t *Tracker) FingerprintInto(dst stats.Freq) stats.Freq {
	fPos, fNeg := t.fPos.View(), t.fNeg.View()
	n := len(fPos)
	if len(fNeg) > n {
		n = len(fNeg)
	}
	if cap(dst) < n {
		dst = make(stats.Freq, n)
	} else {
		dst = dst[:n]
		clear(dst)
	}
	for j := 1; j < len(fPos); j++ {
		dst[j] += fPos[j]
	}
	for j := 1; j < len(fNeg); j++ {
		dst[j] += fNeg[j]
	}
	return dst
}

// FingerprintStats is the Chao92 sufficient statistic of one switch
// fingerprint, read in O(1) from the running aggregates.
type FingerprintStats struct {
	F1      int64 // singleton switch species
	Species int64 // distinct switch species
	Mass    int64 // total switch-ledger observation mass
	PairSum int64 // Σ j(j−1)·f_j
}

// PositiveStats returns the aggregates of the positive-switch fingerprint.
func (t *Tracker) PositiveStats() FingerprintStats {
	return FingerprintStats{
		F1: t.fPos.Singletons(), Species: t.fPos.Species(),
		Mass: t.fPos.Mass(), PairSum: t.fPos.PairSum(),
	}
}

// NegativeStats returns the aggregates of the negative-switch fingerprint.
func (t *Tracker) NegativeStats() FingerprintStats {
	return FingerprintStats{
		F1: t.fNeg.Singletons(), Species: t.fNeg.Species(),
		Mass: t.fNeg.Mass(), PairSum: t.fNeg.PairSum(),
	}
}

// MergedStats returns the aggregates of the merged (positive + negative)
// fingerprint. Every aggregate is linear in the frequency classes, so the
// merged statistic is the componentwise sum — no merge buffer needed.
func (t *Tracker) MergedStats() FingerprintStats {
	p, n := t.PositiveStats(), t.NegativeStats()
	return FingerprintStats{
		F1: p.F1 + n.F1, Species: p.Species + n.Species,
		Mass: p.Mass + n.Mass, PairSum: p.PairSum + n.PairSum,
	}
}

// FingerprintPositive returns the f′-statistics over positive switches only.
func (t *Tracker) FingerprintPositive() stats.Freq { return t.fPos.Clone() }

// FingerprintNegative returns the f′-statistics over negative switches only.
func (t *Tracker) FingerprintNegative() stats.Freq { return t.fNeg.Clone() }

// FingerprintPositiveView returns the positive fingerprint without copying;
// the slice aliases internal storage and is invalidated by the next Add or
// Reset.
func (t *Tracker) FingerprintPositiveView() stats.Freq { return t.fPos.View() }

// FingerprintNegativeView returns the negative fingerprint without copying;
// the slice aliases internal storage and is invalidated by the next Add or
// Reset.
func (t *Tracker) FingerprintNegativeView() stats.Freq { return t.fNeg.View() }

// Consensus reports the tracker's consensus state for item i (true = dirty).
// Under PolicyStrictMajority this coincides with the strict majority with
// sticky ties; under PolicyTieFlip it is the Equation-7 state machine.
func (t *Tracker) Consensus(item int) bool { return dirty(t.ItemSwitches(item)) }

// ItemSwitches returns the number of switch events observed on item i.
func (t *Tracker) ItemSwitches(item int) int {
	_, events := t.rows.Switch(item)
	return events
}

// Reset clears all state without reallocating; widened rows stay wide. The
// rows of a tracker built with NewTrackerOn belong to its matrix, which is
// reset on its own.
func (t *Tracker) Reset() {
	if !t.shared {
		t.rows.Reset()
	}
	if t.retainLedgers {
		for i := range t.ledgers {
			t.ledgers[i] = t.ledgers[i][:0]
		}
	}
	t.fPos.Reset()
	t.fNeg.Reset()
	t.totalVotes, t.noops = 0, 0
	t.posSw, t.negSw = 0, 0
	t.cPos, t.cNeg, t.cAny, t.cMajority = 0, 0, 0, 0
}

// CountSwitches replays a full vote history and returns switch(I) for it,
// the closed-form of Equation 7. It is the reference implementation used by
// tests to validate the incremental tracker.
func CountSwitches(histories [][]votes.Label, policy Policy) int64 {
	t := NewTracker(len(histories), WithPolicy(policy))
	for i, h := range histories {
		for _, l := range h {
			t.Add(i, l)
		}
	}
	return t.Switches()
}
