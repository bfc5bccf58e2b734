package switchstat

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"dqm/internal/stats"
	"dqm/internal/votes"
)

// wideVote is one vote of wideStream.
type wideVote struct {
	item  int
	label votes.Label
}

// wideStream builds a vote stream over 6 items in which three items pass
// votes.MaxVotes4, votes.MaxVotes8 and then votes.MaxVotes16 votes at
// different times:
//
//   - item 1 repeats dirty, clean, clean, dirty, two votes a round: about one
//     switch per two votes under both policies, so it is the first item to
//     pass the bound, and its switch count passes it too;
//   - item 0 votes dirty every round: n⁺ and the frequency class of its one
//     switch pass the bound;
//   - item 2 votes clean every round from round 300 on: n⁻ and the no-ops
//     pass the bound;
//   - every third round, one of items 3–5 gets a random label.
func wideStream() []wideVote {
	const rounds = votes.MaxVotes16 + 700
	rng := rand.New(rand.NewPCG(16, 32))
	pattern := [4]votes.Label{votes.Dirty, votes.Clean, votes.Clean, votes.Dirty}
	var out []wideVote
	k := 0
	for r := 0; r < rounds; r++ {
		for j := 0; j < 2; j++ {
			out = append(out, wideVote{1, pattern[k%4]})
			k++
		}
		out = append(out, wideVote{0, votes.Dirty})
		if r >= 300 {
			out = append(out, wideVote{2, votes.Clean})
		}
		if r%3 == 0 {
			label := votes.Clean
			if rng.IntN(2) == 0 {
				label = votes.Dirty
			}
			out = append(out, wideVote{3 + rng.IntN(3), label})
		}
	}
	return out
}

// TestTrackerWidensPastNarrowVotes drives items past votes.MaxVotes4,
// votes.MaxVotes8 and votes.MaxVotes16 votes through a standalone tracker and
// through a tracker on a response matrix, under both policies, and compares
// them with the 64-bit oracle. After every vote the voted item's counts,
// switch count and consensus and every scalar aggregate must agree; within
// three votes of any item's crossing of any bound, every 65,536 votes and at
// the end, every accessor (fingerprints included) must agree, and so must the
// matrix's counts, f-statistics, c_nominal and c_majority. The rows must be 4
// bits wide until the first crossing of votes.MaxVotes4, 8 bits wide from that
// vote until the first crossing of votes.MaxVotes8, 16 bits wide from that
// vote until the first crossing of votes.MaxVotes16, and 32 bits wide from
// then on; a tracker on a matrix must keep its switch state in the matrix's
// rows. Reset must keep the 32-bit layout and clear everything, and a replay
// of the stream after it must agree too and never widen.
func TestTrackerWidensPastNarrowVotes(t *testing.T) {
	stream := wideStream()
	for _, policy := range []Policy{PolicyTieFlip, PolicyStrictMajority} {
		for _, onMatrix := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/matrix=%v", policy, onMatrix), func(t *testing.T) {
				var m *votes.Matrix
				tr := NewTracker(6, WithPolicy(policy))
				if onMatrix {
					m = votes.NewMatrix(6)
					tr = NewTrackerOn(m, WithPolicy(policy))
				}
				if m != nil && tr.rows != m.Rows() {
					t.Fatal("the tracker keeps rows of its own beside the matrix's")
				}
				o := newOracle(6, policy)
				if widened := checkWideStream(t, stream, tr, m, o); len(widened) != 3 {
					t.Fatalf("the rows widened to %v during the stream, want 8, 16 and 32 bits", widened)
				}
				// Every field must have passed every bound somewhere.
				if o.items[0].pos <= votes.MaxVotes16 || o.items[0].lastFreq <= votes.MaxVotes16 ||
					o.items[1].posEvents+o.items[1].negEvents <= votes.MaxVotes16 ||
					o.items[2].neg <= votes.MaxVotes16 {
					t.Fatalf("stream too short: item states %+v", o.items[:3])
				}
				if m != nil {
					m.Reset()
				}
				tr.Reset()
				o = newOracle(6, policy)
				if tr.rows.Bits() != 32 {
					t.Fatalf("Reset narrowed the rows to %d bits", tr.rows.Bits())
				}
				if msg := diffWide(tr, m, o); msg != "" {
					t.Fatalf("after Reset: %s", msg)
				}
				if widened := checkWideStream(t, stream, tr, m, o); len(widened) != 0 {
					t.Fatalf("a reset tracker widened again: %v", widened)
				}
			})
		}
	}
}

// checkWideStream feeds stream to tr (through m first when m is non-nil) and
// to o, checking as TestTrackerWidensPastNarrowVotes describes. It returns
// each layout tr's rows widened to during the stream, with the index of the
// vote that widened them.
func checkWideStream(t *testing.T, stream []wideVote, tr *Tracker, m *votes.Matrix, o *oracle) map[int]int {
	t.Helper()
	widened := map[int]int{}
	bits := tr.rows.Bits()
	for step, v := range stream {
		if m != nil {
			m.Add(votes.Vote{Item: v.item, Label: v.label})
		}
		tr.Add(v.item, v.label)
		o.add(v.item, v.label)
		st := &o.items[v.item]
		n := st.pos + st.neg
		want := max(bits, bitsFor(n))
		if got := tr.rows.Bits(); got != want {
			t.Fatalf("step %d: %d-bit rows at %d votes on item %d, want %d bits", step, got, n, v.item, want)
		}
		if want != bits {
			widened[want] = step
			bits = want
		}
		msg := diffWideItem(tr, m, o, v.item)
		if msg == "" && (step%65536 == 0 || step == len(stream)-1 || nearBound(n)) {
			msg = diffWide(tr, m, o)
		}
		if msg != "" {
			t.Fatalf("step %d (item %d, %d votes): %s", step, v.item, n, msg)
		}
	}
	return widened
}

// bitsFor returns the narrowest row layout that holds an item with n votes.
func bitsFor(n int64) int {
	switch {
	case n <= votes.MaxVotes4:
		return 4
	case n <= votes.MaxVotes8:
		return 8
	case n <= votes.MaxVotes16:
		return 16
	}
	return 32
}

// nearBound reports whether n votes are within three of any bound.
func nearBound(n int64) bool {
	return abs(n-votes.MaxVotes4) <= 3 || abs(n-votes.MaxVotes8) <= 3 || abs(n-votes.MaxVotes16) <= 3
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// diffWideItem compares, in O(1), item's counts, switch count and consensus
// and every scalar aggregate of tr (and m) with o.
func diffWideItem(tr *Tracker, m *votes.Matrix, o *oracle, item int) string {
	st := &o.items[item]
	pos, neg := tr.rows.Get(item)
	type pair struct {
		name      string
		got, want int64
	}
	pairs := [...]pair{
		{"pos", int64(pos), st.pos},
		{"neg", int64(neg), st.neg},
		{"ItemSwitches", int64(itemSwitches(tr, item)), st.posEvents + st.negEvents},
		{"TotalVotes", tr.totalVotes, o.totalVotes},
		{"NoOps", tr.noops, o.noops},
		{"PositiveSwitches", tr.PositiveSwitches(), o.posSw},
		{"NegativeSwitches", tr.NegativeSwitches(), o.negSw},
		{"CSwitch", tr.CSwitch(), o.cAny},
		{"CSwitchPositive", tr.CSwitchPositive(), o.cPos},
		{"CSwitchNegative", tr.CSwitchNegative(), o.cNeg},
		{"Majority", tr.Majority(), o.cMajority},
	}
	for _, p := range pairs {
		if p.got != p.want {
			return fmt.Sprintf("%s = %d, want %d", p.name, p.got, p.want)
		}
	}
	if m != nil && (int64(m.Pos(item)) != st.pos || int64(m.Neg(item)) != st.neg ||
		m.TotalVotes() != o.totalVotes || m.Majority() != o.cMajority) {
		return fmt.Sprintf("matrix counts %d/%d, %d votes, c_majority %d; want %d/%d, %d, %d",
			m.Pos(item), m.Neg(item), m.TotalVotes(), m.Majority(), st.pos, st.neg, o.totalVotes, o.cMajority)
	}
	if got := dirty(itemSwitches(tr, item)); got != st.dirty {
		return fmt.Sprintf("Consensus = %v, want %v", got, st.dirty)
	}
	if m != nil && m.MajorityDirty(item) != (st.pos > st.neg) {
		return fmt.Sprintf("matrix MajorityDirty = %v with %d/%d votes", m.MajorityDirty(item), st.pos, st.neg)
	}
	return ""
}

// diffWide compares every accessor of tr with o (diffOracle) and, when m is
// non-nil, m's counts and aggregates with o's 64-bit counts.
func diffWide(tr *Tracker, m *votes.Matrix, o *oracle) string {
	if msg := diffOracle(tr, o); msg != "" {
		return msg
	}
	for i := range o.items {
		pos, neg := tr.rows.Get(i)
		if int64(pos) != o.items[i].pos || int64(neg) != o.items[i].neg {
			return fmt.Sprintf("counts(%d) = %d/%d, want %d/%d", i, pos, neg, o.items[i].pos, o.items[i].neg)
		}
	}
	if m == nil {
		return ""
	}
	posCounts := make([]int, len(o.items))
	var posVotes, nominal int64
	for i, st := range o.items {
		posCounts[i] = int(st.pos)
		posVotes += st.pos
		if st.pos > 0 {
			nominal++
		}
		if m.Pos(i) != int(st.pos) || m.Neg(i) != int(st.neg) {
			return fmt.Sprintf("matrix counts(%d) = %d/%d, want %d/%d", i, m.Pos(i), m.Neg(i), st.pos, st.neg)
		}
	}
	f := stats.NewFreqFromCounts(posCounts)
	if !freqEqual(m.DirtyFingerprintView(), f) {
		return "matrix DirtyFingerprint differs from the reference f-statistics"
	}
	if f1, pairSum := m.DirtyStats(); f1 != f.F(1) || pairSum != f.PairSum() {
		return fmt.Sprintf("matrix DirtyStats = %d, %d, want %d, %d", f1, pairSum, f.F(1), f.PairSum())
	}
	if m.PositiveVotes() != posVotes || m.Nominal() != nominal || m.Majority() != o.cMajority {
		return fmt.Sprintf("matrix n⁺/c_nominal/c_majority = %d/%d/%d, want %d/%d/%d",
			m.PositiveVotes(), m.Nominal(), m.Majority(), posVotes, nominal, o.cMajority)
	}
	return ""
}
