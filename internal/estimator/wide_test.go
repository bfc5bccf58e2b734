package estimator

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"dqm/internal/stats"
	"dqm/internal/switchstat"
	"dqm/internal/votes"
	"dqm/internal/xrand"
)

// preWidened returns a suite like NewSuite(n, cfg) whose rows are already in
// the 32-bit layout: one item is pushed past votes.MaxVotes16 votes, and
// Reset keeps the layout.
func preWidened(t *testing.T, n int, cfg SuiteConfig) *Suite {
	t.Helper()
	s := NewSuite(n, cfg)
	for k := 0; k <= votes.MaxVotes16; k++ {
		s.Observe(votes.Vote{Item: 0, Label: votes.Clean})
	}
	s.Reset()
	if s.Matrix.Rows().Bits() != 32 {
		t.Fatal("reference suite is not 32 bits wide")
	}
	return s
}

// bitsFor returns the narrowest row layout that holds an item with n votes.
func bitsFor(n int64) int {
	switch {
	case n <= votes.MaxVotes8:
		return 8
	case n <= votes.MaxVotes16:
		return 16
	}
	return 32
}

// TestSuiteWidensPastNarrowVotes runs a default suite past votes.MaxVotes8
// and votes.MaxVotes16 votes on two items, next to a suite that was 32 bits
// wide from its first vote and to 64-bit per-item counts kept by the test.
// After every vote the voted item's counts and majority must equal the
// reference counts, and the rows must be exactly as wide as the most votes
// any item has held needs. After every task, and after every vote within
// three votes of either item's crossing of either bound, the suites must
// agree on every estimate, on ItemSwitches and
// Consensus, and the tested suite's counts, c_nominal and c_majority, and the
// counts CaptureChao92 reads, must equal the reference. Within the
// crossings, every 100 tasks and after Reset the f-statistics and both
// switch fingerprints are compared too. Reset must keep the 32-bit layout,
// and a replay after it must agree the same way and never widen.
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
	rows := s.Matrix.Rows()
	for pass := 0; pass < 2; pass++ {
		pos, neg := make([]int64, n), make([]int64, n)
		bits, widened := rows.Bits(), 0
		for k, task := range tasks {
			for _, v := range task {
				s.Observe(v)
				ref.Observe(v)
				if v.Label == votes.Dirty {
					pos[v.Item]++
				} else {
					neg[v.Item]++
				}
				seen := pos[v.Item] + neg[v.Item]
				if want := max(bits, bitsFor(seen)); rows.Bits() != want {
					t.Fatalf("pass %d task %d: %d-bit rows at %d votes on item %d, want %d bits", pass, k, rows.Bits(), seen, v.Item, want)
				} else if want != bits {
					bits = want
					widened++
				}
				if p, q := rows.Get(v.Item); int64(p) != pos[v.Item] || int64(q) != neg[v.Item] ||
					s.Matrix.MajorityDirty(v.Item) != (pos[v.Item] > neg[v.Item]) {
					t.Fatalf("pass %d task %d: item %d counts %d/%d, want %d/%d", pass, k, v.Item, p, q, pos[v.Item], neg[v.Item])
				}
				for _, bound := range []int64{votes.MaxVotes8, votes.MaxVotes16} {
					if d := seen - bound; d >= -3 && d <= 3 {
						if msg := diffWideSuite(s, ref, pos, neg, true); msg != "" {
							t.Fatalf("pass %d task %d, item %d at %d votes: %s", pass, k, v.Item, seen, msg)
						}
					}
				}
			}
			s.EndTask()
			ref.EndTask()
			if msg := diffWideSuite(s, ref, pos, neg, k%100 == 99); msg != "" {
				t.Fatalf("pass %d after task %d: %s", pass, k, msg)
			}
		}
		if rows.Bits() != 32 || pos[0]+neg[0] <= votes.MaxVotes16 || pos[1]+neg[1] <= votes.MaxVotes16 {
			t.Fatalf("pass %d: %d-bit rows with %d and %d votes on items 0 and 1",
				pass, rows.Bits(), pos[0]+neg[0], pos[1]+neg[1])
		}
		if want := 2 * (1 - pass); widened != want {
			t.Fatalf("pass %d: the rows widened %d times, want %d", pass, widened, want)
		}
		s.Reset()
		ref.Reset()
		if rows.Bits() != 32 {
			t.Fatalf("Reset narrowed the suite to %d bits", rows.Bits())
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

// TestSuiteRepeatedSwitchMatchesOne selects SWITCH more than once, which a
// session create accepts, and checks that the suite behaves as if it had
// been selected once. A suite's rows hold one SWITCH state per item, so two
// trackers updating the same rows would each count the other's switches.
// Under both policies, after every task and across the 8- to 16-bit
// widening, every estimate, the SWITCH estimate, the
// switch counts, ItemSwitches and Consensus must equal those of a suite that
// lists each name once, and Names must keep every repetition. Reset and a
// replay must agree the same way.
func TestSuiteRepeatedSwitchMatchesOne(t *testing.T) {
	const n = 12
	for _, policy := range []switchstat.Policy{switchstat.PolicyTieFlip, switchstat.PolicyStrictMajority} {
		for _, sel := range []struct{ names, once []string }{
			{[]string{NameSwitch, NameSwitch}, []string{NameSwitch}},
			{[]string{NameChao92, NameSwitch, NameVoting, NameSwitch, NameSwitch},
				[]string{NameChao92, NameSwitch, NameVoting}},
		} {
			t.Run(fmt.Sprintf("%v/%v", policy, sel.names), func(t *testing.T) {
				cfg := SuiteConfig{Estimators: sel.names, Switch: SwitchConfig{Policy: policy}}
				s := NewSuite(n, cfg)
				cfg.Estimators = sel.once
				ref := NewSuite(n, cfg)
				if got := s.Names(); !slices.Equal(got, sel.names) {
					t.Fatalf("Names = %v, want %v", got, sel.names)
				}
				rng := xrand.New(255)
				// 1,000 tasks of 6 votes over 12 items, about 500 votes an
				// item, so the rows widen to 16 bits; every vote is a coin
				// flip, so ties and switches are frequent under both
				// policies.
				for pass := 0; pass < 2; pass++ {
					pos, neg := make([]int64, n), make([]int64, n)
					for k := 0; k < 1000; k++ {
						for j := 0; j < 6; j++ {
							v := votes.Vote{Item: rng.IntN(n), Label: drawLabel(rng, 0.5)}
							s.Observe(v)
							ref.Observe(v)
							if v.Label == votes.Dirty {
								pos[v.Item]++
							} else {
								neg[v.Item]++
							}
						}
						s.EndTask()
						ref.EndTask()
						if msg := diffWideSuite(s, ref, pos, neg, k%50 == 49); msg != "" {
							t.Fatalf("pass %d after task %d: %s", pass, k, msg)
						}
						if msg := diffSwitchMembers(s, ref); msg != "" {
							t.Fatalf("pass %d after task %d: %s", pass, k, msg)
						}
					}
					if s.Matrix.Rows().Bits() != 16 {
						t.Fatalf("pass %d: %d-bit rows, want 16", pass, s.Matrix.Rows().Bits())
					}
					s.Reset()
					ref.Reset()
				}
			})
		}
	}
}

// diffSwitchMembers returns the first way the SWITCH estimator of s
// disagrees with ref's, or "".
func diffSwitchMembers(s, ref *Suite) string {
	if got, want := s.Switch.Estimate(), ref.Switch.Estimate(); got != want {
		return fmt.Sprintf("SWITCH Estimate = %+v, want %+v", got, want)
	}
	tr, rt := s.Switch.Tracker(), ref.Switch.Tracker()
	if tr.Switches() != rt.Switches() || tr.NSwitch() != rt.NSwitch() {
		return fmt.Sprintf("%d switches over n_switch %d, want %d over %d",
			tr.Switches(), tr.NSwitch(), rt.Switches(), rt.NSwitch())
	}
	for item := 0; item < s.NumItems(); item++ {
		if tr.ItemSwitches(item) != rt.ItemSwitches(item) || tr.Consensus(item) != rt.Consensus(item) {
			return fmt.Sprintf("item %d: %d switches, consensus %v; want %d, %v",
				item, tr.ItemSwitches(item), tr.Consensus(item), rt.ItemSwitches(item), rt.Consensus(item))
		}
	}
	return ""
}
