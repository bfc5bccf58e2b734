package switchstat

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"

	"dqm/internal/stats"
	"dqm/internal/votes"
)

// oracleItem is the field-based per-item switch state: every quantity that
// the tracker derives from an item's switch count is stored here explicitly,
// in 64 bits, so no count the tracker narrows can overflow here.
type oracleItem struct {
	pos, neg  int64
	dirty     bool // current consensus state; items start clean
	started   bool // true once the first switch happened
	lastDirty bool // sign of the most recent switch (true = positive switch)
	lastFreq  int64
	posEvents int64
	negEvents int64
}

// oracle is the reference switch state machine the packed Tracker must match
// accessor for accessor. It always keeps ledgers, and it keeps plain
// fingerprints rather than running aggregates, so the Tracker's O(1)
// aggregates are checked against a direct evaluation as well.
type oracle struct {
	policy     Policy
	items      []oracleItem
	ledgers    [][]SwitchEvent
	fPos, fNeg stats.Freq

	totalVotes, noops, posSw, negSw int64
	cPos, cNeg, cAny, cMajority     int64
}

func newOracle(n int, p Policy) *oracle {
	return &oracle{
		policy:  p,
		items:   make([]oracleItem, n),
		ledgers: make([][]SwitchEvent, n),
		fPos:    stats.Freq{0},
		fNeg:    stats.Freq{0},
	}
}

func (o *oracle) add(item int, label votes.Label) {
	st := &o.items[item]
	wasMajority := st.pos > st.neg
	if label == votes.Dirty {
		st.pos++
	} else {
		st.neg++
	}
	if isMajority := st.pos > st.neg; isMajority != wasMajority {
		if isMajority {
			o.cMajority++
		} else {
			o.cMajority--
		}
	}
	o.totalVotes++

	flip := false
	switch o.policy {
	case PolicyTieFlip:
		if st.pos+st.neg == 1 {
			flip = label == votes.Dirty
		} else {
			flip = st.pos == st.neg
		}
	case PolicyStrictMajority:
		flip = (st.pos > st.neg && !st.dirty) || (st.neg > st.pos && st.dirty)
	}

	switch {
	case flip:
		st.dirty = !st.dirty
		positive := st.dirty
		if !st.started {
			st.started = true
			o.cAny++
		}
		if positive {
			o.posSw++
			st.posEvents++
			if st.posEvents == 1 {
				o.cPos++
			}
			o.fPos.Add(1, 1)
		} else {
			o.negSw++
			st.negEvents++
			if st.negEvents == 1 {
				o.cNeg++
			}
			o.fNeg.Add(1, 1)
		}
		st.lastDirty = positive
		st.lastFreq = 1
		o.ledgers[item] = append(o.ledgers[item], SwitchEvent{Positive: positive, Freq: 1})
	case st.started:
		if st.lastDirty {
			o.fPos.Promote(int(st.lastFreq))
		} else {
			o.fNeg.Promote(int(st.lastFreq))
		}
		st.lastFreq++
		o.ledgers[item][len(o.ledgers[item])-1].Freq++
	default:
		o.noops++
	}
}

func freqEqual(a, b stats.Freq) bool {
	n := max(len(a), len(b))
	for j := 1; j < n; j++ {
		if a.F(j) != b.F(j) {
			return false
		}
	}
	return true
}

func oracleStats(f stats.Freq) FingerprintStats {
	return FingerprintStats{F1: f.F(1), Species: f.Species(), Mass: f.Mass(), PairSum: f.PairSum()}
}

// diffOracle returns the first accessor on which tr disagrees with o, or "".
func diffOracle(tr *Tracker, o *oracle) string {
	type pair struct {
		name      string
		got, want int64
	}
	for _, p := range []pair{
		{"NumItems", int64(tr.NumItems()), int64(len(o.items))},
		{"Policy", int64(tr.policy), int64(o.policy)},
		{"TotalVotes", tr.totalVotes, o.totalVotes},
		{"NoOps", tr.noops, o.noops},
		{"NSwitch", tr.NSwitch(), o.totalVotes - o.noops},
		{"Switches", tr.Switches(), o.posSw + o.negSw},
		{"PositiveSwitches", tr.PositiveSwitches(), o.posSw},
		{"NegativeSwitches", tr.NegativeSwitches(), o.negSw},
		{"CSwitch", tr.CSwitch(), o.cAny},
		{"CSwitchPositive", tr.CSwitchPositive(), o.cPos},
		{"CSwitchNegative", tr.CSwitchNegative(), o.cNeg},
		{"Majority", tr.Majority(), o.cMajority},
	} {
		if p.got != p.want {
			return fmt.Sprintf("%s = %d, want %d", p.name, p.got, p.want)
		}
	}
	merged := o.fPos.Clone()
	for j := 1; j < len(o.fNeg); j++ {
		merged.Add(j, o.fNeg[j])
	}
	for _, f := range []struct {
		name      string
		got, want stats.Freq
	}{
		{"FingerprintPositive", tr.FingerprintPositive(), o.fPos},
		{"FingerprintNegative", tr.FingerprintNegative(), o.fNeg},
		{"FingerprintPositiveView", tr.FingerprintPositiveView(), o.fPos},
		{"FingerprintNegativeView", tr.FingerprintNegativeView(), o.fNeg},
		{"Fingerprint", tr.Fingerprint(), merged},
		{"FingerprintInto", tr.FingerprintInto(stats.Freq{7, 7, 7, 7, 7, 7, 7, 7}), merged},
	} {
		if !freqEqual(f.got, f.want) {
			return fmt.Sprintf("%s = %v, want %v", f.name, f.got, f.want)
		}
	}
	for _, s := range []struct {
		name      string
		got, want FingerprintStats
	}{
		{"PositiveStats", tr.PositiveStats(), oracleStats(o.fPos)},
		{"NegativeStats", tr.NegativeStats(), oracleStats(o.fNeg)},
		{"MergedStats", tr.MergedStats(), oracleStats(merged)},
	} {
		if s.got != s.want {
			return fmt.Sprintf("%s = %+v, want %+v", s.name, s.got, s.want)
		}
	}
	for i := range o.items {
		st := &o.items[i]
		if got := dirty(itemSwitches(tr, i)); got != st.dirty {
			return fmt.Sprintf("Consensus(%d) = %v, want %v", i, got, st.dirty)
		}
		if got, want := itemSwitches(tr, i), int(st.posEvents+st.negEvents); got != want {
			return fmt.Sprintf("ItemSwitches(%d) = %d, want %d", i, got, want)
		}
		if got := tr.ItemMajorityDirty(i); got != (st.pos > st.neg) {
			return fmt.Sprintf("ItemMajorityDirty(%d) = %v", i, got)
		}
		l := tr.ItemLedger(i)
		if !tr.RetainsLedgers() {
			if l != nil {
				return fmt.Sprintf("ItemLedger(%d) = %v without retention", i, l)
			}
			continue
		}
		if len(l) != len(o.ledgers[i]) {
			return fmt.Sprintf("ItemLedger(%d) = %v, want %v", i, l, o.ledgers[i])
		}
		for k := range l {
			if l[k] != o.ledgers[i][k] {
				return fmt.Sprintf("ItemLedger(%d) = %v, want %v", i, l, o.ledgers[i])
			}
		}
	}
	return ""
}

// TestItemStateIs2Bytes: an item's switch state shares one row with its vote
// counts, 2 B per item while the rows are 4 bits wide, so a standalone
// tracker costs 2 B per item and a tracker on a response matrix adds nothing
// per item to the matrix's rows.
func TestItemStateIs2Bytes(t *testing.T) {
	const n = 1 << 20
	m := votes.NewMatrix(n)
	for _, c := range []struct {
		name string
		make func() *Tracker
		want uint64
	}{
		{"standalone", func() *Tracker { return NewTracker(n) }, 2},
		{"on a matrix", func() *Tracker { return NewTrackerOn(m) }, 0},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr := c.make()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(tr)
		if perItem := (after.TotalAlloc - before.TotalAlloc) / n; perItem != c.want {
			t.Fatalf("%s tracker over %d items: %d B per item, want %d", c.name, n, perItem, c.want)
		}
	}
}

// TestTrackerMatchesOracle drives seeded random streams through the packed
// Tracker and the field-based oracle under both policies, with ledgers on and
// off, standalone and reading a response matrix's counts, resetting
// mid-stream, and requires every accessor to agree after every vote. A
// tracker on a matrix is fed the way a suite feeds it (matrix first).
func TestTrackerMatchesOracle(t *testing.T) {
	for _, policy := range []Policy{PolicyTieFlip, PolicyStrictMajority} {
		for _, ledgers := range []bool{false, true} {
			opts := []Option{WithPolicy(policy)}
			if ledgers {
				opts = append(opts, WithItemLedgers())
			}
			t.Run(fmt.Sprintf("%v/ledgers=%v", policy, ledgers), func(t *testing.T) {
				for _, onMatrix := range []bool{false, true} {
					t.Run(fmt.Sprintf("matrix=%v", onMatrix), func(t *testing.T) {
						for seed := uint64(1); seed <= 40; seed++ {
							checkOracleStream(t, seed, policy, opts, onMatrix)
						}
					})
				}
			})
		}
	}
}

// checkOracleStream runs one seeded stream of TestTrackerMatchesOracle.
func checkOracleStream(t *testing.T, seed uint64, policy Policy, opts []Option, onMatrix bool) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, uint64(policy)))
	n := 1 + rng.IntN(12)
	pDirty := 0.1 + 0.8*rng.Float64()
	// m is the matrix tr reads its counts from, nil when tr counts votes
	// itself.
	var m *votes.Matrix
	tr := NewTracker(n, opts...)
	if onMatrix {
		m = votes.NewMatrix(n)
		tr = NewTrackerOn(m, opts...)
	}
	o := newOracle(n, policy)
	for step := 0; step < 600; step++ {
		if rng.IntN(100) == 0 {
			if m != nil {
				m.Reset()
			}
			tr.Reset()
			o = newOracle(n, policy)
		}
		label := votes.Clean
		if rng.Float64() < pDirty {
			label = votes.Dirty
		}
		item := rng.IntN(n)
		if m != nil {
			m.Add(votes.Vote{Item: item, Label: label})
		}
		tr.Add(item, label)
		o.add(item, label)
		if msg := diffOracle(tr, o); msg != "" {
			t.Fatalf("seed %d step %d: %s", seed, step, msg)
		}
	}
}

// Fingerprint returns the f′-statistics over all switch species (positive
// and negative merged).
func (t *Tracker) Fingerprint() stats.Freq { return t.FingerprintInto(nil) }

// FingerprintPositive returns the f′-statistics over positive switches only.
func (t *Tracker) FingerprintPositive() stats.Freq { return t.fPos.Clone() }

// FingerprintNegative returns the f′-statistics over negative switches only.
func (t *Tracker) FingerprintNegative() stats.Freq { return t.fNeg.Clone() }

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

// FingerprintInto merges both sign fingerprints into dst (grown as needed)
// and returns it.
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

// itemSwitches returns the number of switch events observed on item.
func itemSwitches(tr *Tracker, item int) int {
	_, events := tr.rows.Switch(item)
	return events
}
