package estimator

import (
	"fmt"
	"slices"
	"testing"

	"dqm/internal/votes"
	"dqm/internal/xrand"
)

// TestSuiteSelection replays one stream through a suite for every non-empty
// subset of the five estimators, listed in canonical and in reversed order,
// and through one that lists SWITCH twice, next to the full suite. After
// every task, across the 8- to 16-bit widening, and after Reset and a
// replay, each selected estimate must equal the full
// suite's and every other one must be zero. Names must return the selection
// as given, and EstimateAll must not allocate.
func TestSuiteSelection(t *testing.T) {
	const n = 8
	var sels [][]string
	all := StandardNames()
	for mask := 1; mask < 1<<len(all); mask++ {
		var sel []string
		for i, name := range all {
			if mask&(1<<i) != 0 {
				sel = append(sel, name)
			}
		}
		sels = append(sels, sel)
		if len(sel) > 1 {
			rev := slices.Clone(sel)
			slices.Reverse(rev)
			sels = append(sels, rev)
		}
	}
	sels = append(sels, []string{NameSwitch, NameVoting, NameSwitch})

	full := NewSuite(n, SuiteConfig{})
	suites := make([]*Suite, len(sels))
	for i, sel := range sels {
		suites[i] = NewSuite(n, SuiteConfig{Estimators: slices.Clone(sel)})
		if got := suites[i].Names(); !slices.Equal(got, sel) {
			t.Fatalf("Names() = %v, want %v", got, sel)
		}
	}
	check := func(when string) {
		t.Helper()
		ref := full.EstimateAll()
		for i, s := range suites {
			want := selectedOf(ref, sels[i])
			if got := s.EstimateAll(); got != want {
				t.Fatalf("%s, %v: EstimateAll = %+v, want %+v", when, sels[i], got, want)
			}
		}
	}

	rng := xrand.New(23)
	// 320 tasks voting once on each of 8 items, so every item passes 255
	// votes and the rows widen to 16 bits; item i is dirty with probability
	// i/8, so majorities, ties and switches of both signs all occur.
	for pass := 0; pass < 2; pass++ {
		for k := 0; k < 320; k++ {
			for item := 0; item < n; item++ {
				v := votes.Vote{Item: item, Worker: rng.IntN(5), Label: drawLabel(rng, float64(item)/n)}
				full.Observe(v)
				for _, s := range suites {
					s.Observe(v)
				}
			}
			full.EndTask()
			for _, s := range suites {
				s.EndTask()
			}
			check(fmt.Sprintf("pass %d task %d", pass, k))
		}
		if bits := full.Matrix.Rows().Bits(); bits != 16 {
			t.Fatalf("pass %d: %d-bit rows, want 16", pass, bits)
		}
		full.Reset()
		for _, s := range suites {
			s.Reset()
		}
		check(fmt.Sprintf("after Reset %d", pass))
	}

	v := votes.Vote{Item: 3, Worker: 1, Label: votes.Dirty}
	for i, s := range suites {
		if a := testing.AllocsPerRun(20, func() { s.Observe(v); _ = s.EstimateAll(); _ = s.EstimateAll() }); a != 0 {
			t.Fatalf("%v: a vote and two EstimateAll calls allocate %v times", sels[i], a)
		}
	}
}

// selectedOf returns e with every estimate that names does not select
// zeroed.
func selectedOf(e Estimates, names []string) Estimates {
	var out Estimates
	for _, name := range names {
		switch name {
		case NameNominal:
			out.Nominal = e.Nominal
		case NameVoting:
			out.Voting = e.Voting
		case NameChao92:
			out.Chao92 = e.Chao92
		case NameVChao92:
			out.VChao92 = e.VChao92
		case NameSwitch:
			out.Switch = e.Switch
		}
	}
	return out
}

// TestStandaloneEstimators selects each standard estimator alone and checks
// that it ingests its own votes and that Reset zeroes it.
func TestStandaloneEstimators(t *testing.T) {
	for _, name := range StandardNames() {
		s := NewSuite(5, SuiteConfig{Estimators: []string{name}})
		// Two dirty votes per item, so the vChao92 shift does not drop every
		// frequency class.
		for w := 0; w < 2; w++ {
			for i := 0; i < 5; i++ {
				s.Observe(votes.Vote{Item: i, Worker: w, Label: votes.Dirty})
			}
			s.EndTask()
		}
		if got := s.EstimateAll().ByName(name); got == 0 {
			t.Errorf("%s alone: estimate = 0 after 10 dirty votes", name)
		}
		s.Reset()
		if got := s.EstimateAll().ByName(name); got != 0 {
			t.Errorf("%s alone: estimate after Reset = %v, want 0", name, got)
		}
	}
}
