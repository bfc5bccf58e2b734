package estimator

import (
	"fmt"
	"reflect"
	"testing"

	"dqm/internal/stats"
	"dqm/internal/votes"
	"dqm/internal/xrand"
)

// preWidened returns a suite like NewSuite(n, cfg) whose matrix and tracker
// are already in the 32-bit layout: one item is pushed past
// votes.MaxNarrowVotes votes, and Reset keeps the layout.
func preWidened(t *testing.T, n int, cfg SuiteConfig) *Suite {
	t.Helper()
	s := NewSuite(n, cfg)
	for k := 0; k <= votes.MaxNarrowVotes; k++ {
		s.Observe(votes.Vote{Item: 0, Label: votes.Clean})
	}
	s.Reset()
	if !s.Matrix.Counts().Wide() {
		t.Fatal("reference suite is not wide")
	}
	return s
}

// TestSuiteWidensPastNarrowVotes runs a default suite past
// votes.MaxNarrowVotes votes on two items, next to a suite that was wide from
// its first vote and to 64-bit per-item counts kept by the test. After every
// task, and after every vote within three votes of either item's crossing,
// the suites must agree on every estimate (memoized and uncached), on
// ItemSwitches and Consensus, and the tested suite's counts, c_nominal and
// c_majority, and the counts CaptureChao92 reads, must equal the reference.
// Within the crossings, every 100 tasks and after Reset the f-statistics and
// both switch fingerprints are compared too. Reset must keep the wide layout,
// and a replay after it must agree the same way.
func TestSuiteWidensPastNarrowVotes(t *testing.T) {
	const n = 30
	s := NewSuite(n, SuiteConfig{})
	ref := preWidened(t, n, SuiteConfig{})
	rng := xrand.New(65536)
	pattern := [4]votes.Label{votes.Dirty, votes.Clean, votes.Clean, votes.Dirty}
	// 1,500 tasks of 100 votes: item 0 gets 45 (70% dirty), item 1 cycles
	// through pattern with 50, the rest go to random items.
	var tasks [][]votes.Vote
	for k := 0; k < 1500; k++ {
		task := make([]votes.Vote, 0, 100)
		for j := 0; j < 100; j++ {
			v := votes.Vote{Item: 2 + rng.IntN(n-2), Label: drawLabel(rng, 0.3)}
			switch {
			case j < 45:
				v = votes.Vote{Item: 0, Label: drawLabel(rng, 0.7)}
			case j < 95:
				v = votes.Vote{Item: 1, Label: pattern[(k*50+j-45)%4]}
			}
			task = append(task, v)
		}
		tasks = append(tasks, task)
	}
	for pass := 0; pass < 2; pass++ {
		pos, neg := make([]int64, n), make([]int64, n)
		for k, task := range tasks {
			for _, v := range task {
				s.Observe(v)
				ref.Observe(v)
				if v.Label == votes.Dirty {
					pos[v.Item]++
				} else {
					neg[v.Item]++
				}
				if d := pos[v.Item] + neg[v.Item] - votes.MaxNarrowVotes; d >= -3 && d <= 3 {
					if msg := diffWideSuite(s, ref, pos, neg, true); msg != "" {
						t.Fatalf("pass %d task %d, item %d at %d votes: %s", pass, k, v.Item, pos[v.Item]+neg[v.Item], msg)
					}
				}
			}
			s.EndTask()
			ref.EndTask()
			if msg := diffWideSuite(s, ref, pos, neg, k%100 == 99); msg != "" {
				t.Fatalf("pass %d after task %d: %s", pass, k, msg)
			}
		}
		if !s.Matrix.Counts().Wide() || pos[0]+neg[0] <= votes.MaxNarrowVotes || pos[1]+neg[1] <= votes.MaxNarrowVotes {
			t.Fatalf("pass %d: suite wide %v with %d and %d votes on items 0 and 1",
				pass, s.Matrix.Counts().Wide(), pos[0]+neg[0], pos[1]+neg[1])
		}
		s.Reset()
		ref.Reset()
		if !s.Matrix.Counts().Wide() {
			t.Fatal("Reset narrowed the suite")
		}
		if msg := diffWideSuite(s, ref, make([]int64, n), make([]int64, n), true); msg != "" {
			t.Fatalf("after Reset: %s", msg)
		}
	}
}

// diffWideSuite returns the first way s disagrees with the wide reference
// suite ref or with the 64-bit per-item counts pos and neg, or "". The
// fingerprints, O(largest count) to compare, are compared only if full.
func diffWideSuite(s, ref *Suite, pos, neg []int64, full bool) string {
	if got, want := s.EstimateAll(), ref.EstimateAll(); !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("EstimateAll = %+v, want %+v", got, want)
	}
	if got, want := s.EstimateAllUncached(), ref.EstimateAll(); !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("EstimateAllUncached = %+v, want %+v", got, want)
	}
	m := s.Matrix
	posCounts := make([]int, len(pos))
	var nominal, majority int64
	for i := range pos {
		posCounts[i] = int(pos[i])
		if pos[i] > 0 {
			nominal++
		}
		if pos[i] > neg[i] {
			majority++
		}
		if int64(m.Pos(i)) != pos[i] || int64(m.Neg(i)) != neg[i] || int64(m.Seen(i)) != pos[i]+neg[i] {
			return fmt.Sprintf("counts(%d) = %d/%d, want %d/%d", i, m.Pos(i), m.Neg(i), pos[i], neg[i])
		}
	}
	st := CaptureChao92(m)
	defer st.Release()
	for i, c := range st.pos {
		if c != posCounts[i] {
			return fmt.Sprintf("CaptureChao92 n⁺_%d = %d, want %d", i, c, posCounts[i])
		}
	}
	if m.Nominal() != nominal || m.Majority() != majority {
		return fmt.Sprintf("c_nominal/c_majority = %d/%d, want %d/%d", m.Nominal(), m.Majority(), nominal, majority)
	}
	tr, rt := s.Switch.Tracker(), ref.Switch.Tracker()
	if full {
		f := stats.NewFreqFromCounts(posCounts)
		if !sameFreq(m.DirtyFingerprintView(), f) {
			return "DirtyFingerprint differs from the reference f-statistics"
		}
		if !sameFreq(tr.FingerprintPositiveView(), rt.FingerprintPositiveView()) ||
			!sameFreq(tr.FingerprintNegativeView(), rt.FingerprintNegativeView()) {
			return "switch fingerprints differ"
		}
	}
	for i := range pos {
		if tr.ItemSwitches(i) != rt.ItemSwitches(i) || tr.Consensus(i) != rt.Consensus(i) {
			return fmt.Sprintf("item %d: %d switches, consensus %v; want %d, %v",
				i, tr.ItemSwitches(i), tr.Consensus(i), rt.ItemSwitches(i), rt.Consensus(i))
		}
	}
	return ""
}

// sameFreq reports whether a and b hold the same f-statistics; trailing empty
// classes do not count.
func sameFreq(a, b stats.Freq) bool {
	for j := 1; j < max(len(a), len(b)); j++ {
		if a.F(j) != b.F(j) {
			return false
		}
	}
	return true
}
