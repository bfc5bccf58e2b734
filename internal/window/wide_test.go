package window

import (
	"testing"

	"dqm/internal/estimator"
	"dqm/internal/votes"
	"dqm/internal/xrand"
)

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

// TestPanesWidenPastNarrowVotes drives a sliding ring of two panes past
// votes.MaxVotes8 and votes.MaxVotes16 votes on one item in every pane, with
// 64-bit counts per pane kept by the test. After every vote, every open
// pane's counts for the voted item must equal the pane's reference counts,
// and every pane's rows must be exactly as wide as the most votes any of its
// items has held since the pane was built needs: a pane recycled for a later
// window keeps its layout. Ring.Reset must keep every pane's layout, and a
// replay after it must never widen.
func TestPanesWidenPastNarrowVotes(t *testing.T) {
	const n = 6
	r := New(n, estimator.SuiteConfig{}, Config{Size: 8, Stride: 4})
	// Tasks 0–15 hold 9,000 votes, 8,000 of them on item 0 (70% dirty), so
	// every window passes votes.MaxVotes8 in its first task but holds at most
	// 64,000 votes on item 0. Tasks 16–19 give item 0 17,000 votes each, so
	// both panes (the windows opening at tasks 12 and 16) pass
	// votes.MaxVotes16 there.
	rng := xrand.New(255)
	var tasks [][]votes.Vote
	for k := 0; k < 20; k++ {
		size, heavy := 9000, 8000
		if k >= 16 {
			size, heavy = 17000, 17000
		}
		task := make([]votes.Vote, size)
		for j := range task {
			v := votes.Vote{Item: 1 + rng.IntN(n-1)}
			dirty := rng.Bernoulli(0.3)
			if j < heavy {
				v.Item, dirty = 0, rng.Bernoulli(0.7)
			}
			if dirty {
				v.Label = votes.Dirty
			}
			task[j] = v
		}
		tasks = append(tasks, task)
	}
	bits := make([]int, len(r.panes))
	for i, p := range r.panes {
		bits[i] = p.suite.Matrix.Rows().Bits()
	}
	for pass := 0; pass < 2; pass++ {
		counts := make([][2][n]int64, len(r.panes)) // per pane: n⁺, n⁻
		widened := make([]int, len(r.panes))
		for k, task := range tasks {
			for _, v := range task {
				r.Observe(v)
				for i, p := range r.panes {
					rows := p.suite.Matrix.Rows()
					if p.start >= 0 {
						counts[i][v.Label][v.Item]++
						c := &counts[i]
						if want := max(bits[i], bitsFor(c[0][v.Item]+c[1][v.Item])); want != bits[i] {
							bits[i] = want
							widened[i]++
						}
						if pos, neg := rows.Get(v.Item); int64(pos) != c[votes.Dirty][v.Item] || int64(neg) != c[votes.Clean][v.Item] {
							t.Fatalf("pass %d task %d pane %d: item %d counts %d/%d, want %d/%d",
								pass, k, i, v.Item, pos, neg, c[votes.Dirty][v.Item], c[votes.Clean][v.Item])
						}
					}
					if rows.Bits() != bits[i] {
						t.Fatalf("pass %d task %d pane %d: %d-bit rows, want %d bits", pass, k, i, rows.Bits(), bits[i])
					}
				}
			}
			starts := make([]int64, len(r.panes))
			for i, p := range r.panes {
				starts[i] = p.start
			}
			r.EndTask()
			for i, p := range r.panes {
				if p.start != starts[i] { // sealed and reset, or opened
					counts[i] = [2][n]int64{}
				}
			}
		}
		if pass == 0 {
			for i := range r.panes {
				if bits[i] != 32 || widened[i] != 2 {
					t.Fatalf("pane %d widened %d times to %d bits, want 2 times to 32", i, widened[i], bits[i])
				}
			}
		} else {
			for i := range r.panes {
				if widened[i] != 0 {
					t.Fatalf("pane %d widened again after Reset", i)
				}
			}
		}
		r.Reset()
		for i, p := range r.panes {
			if got := p.suite.Matrix.Rows().Bits(); got != bits[i] {
				t.Fatalf("Reset took pane %d from %d to %d bits", i, bits[i], got)
			}
		}
	}
}
