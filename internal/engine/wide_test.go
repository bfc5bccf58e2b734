package engine

import (
	"fmt"
	"reflect"
	"testing"

	"dqm/internal/votes"
	"dqm/internal/window"
	"dqm/internal/xrand"
)

// TestWindowedSessionWidensPastNarrowVotes runs a windowed session whose
// all-time suite and both panes pass votes.MaxVotes4, votes.MaxVotes8 and
// then votes.MaxVotes16 votes on one item, next to a session of the same
// config whose suites were all 32 bits wide before its first vote (a warm-up
// pushed item 0 past votes.MaxVotes16 votes in every pane, and Reset keeps the
// layout). After every vote the voted item's all-time counts and majority
// must equal 64-bit counts kept by the test, and the all-time rows must be
// exactly as wide as the most votes any item has held needs. After every
// task, and after every vote within three votes of a crossing of any bound in
// any suite, the all-time estimates, every window view, the majority of every
// item and the vote total must be equal. Reset must keep the 32-bit layout,
// and a replay after it must agree too and never widen.
func TestWindowedSessionWidensPastNarrowVotes(t *testing.T) {
	const n = 40
	cfg := SessionConfig{Window: &window.Config{Size: 8, Stride: 4, DecayAlpha: 0.5}}
	s := NewSession("narrow", n, cfg)
	ref := NewSession("wide", n, cfg)
	// Warm-up: item 0 passes votes.MaxVotes16 votes in the window opening at
	// task 0 and again in the one opening at task 4.
	for task := 0; task < 5; task++ {
		if task%4 == 0 {
			heavy := make([]votes.Vote, votes.MaxVotes16+1)
			if err := ref.Append(heavy, false); err != nil {
				t.Fatal(err)
			}
		}
		if err := ref.EndTask(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Reset(); err != nil {
		t.Fatal(err)
	}
	if ref.suite.Matrix.Rows().Bits() != 32 {
		t.Fatal("reference session is not 32 bits wide")
	}

	// 16 tasks of 10,000 votes: item 0 gets 9,000 (70% dirty), so it passes
	// votes.MaxVotes4 and votes.MaxVotes8 in the first task and votes.MaxVotes16 in task 8 of
	// the all-time suite and of each pane; item 1
	// cycles dirty, clean, clean, dirty with 500; the rest go to random items.
	rng := xrand.New(1 << 16)
	pattern := [4]bool{true, false, false, true}
	tasks := make([][]votes.Vote, 16)
	for k := range tasks {
		for j := 0; j < 10000; j++ {
			v := votes.Vote{Item: 2 + rng.IntN(n-2), Label: votes.Clean}
			dirty := rng.Bernoulli(0.3)
			switch {
			case j < 9000:
				v.Item, dirty = 0, rng.Bernoulli(0.7)
			case j < 9500:
				v.Item, dirty = 1, pattern[j%4]
			}
			if dirty {
				v.Label = votes.Dirty
			}
			v.Worker = rng.IntN(25)
			tasks[k] = append(tasks[k], v)
		}
	}
	rows := s.suite.Matrix.Rows()
	for pass := 0; pass < 2; pass++ {
		// heavyAt[k] counts the votes on item 0 before task k, so the suite
		// opened at task k holds heavyAt[now]-heavyAt[k] of them.
		heavyAt := []int{0}
		heavy := 0
		pos, neg := make([]int64, n), make([]int64, n)
		bits, widened := rows.Bits(), 0
		for k, task := range tasks {
			for _, v := range task {
				for _, sess := range []*Session{s, ref} {
					if err := sess.Record(v.Item, v.Worker, v.Label == votes.Dirty); err != nil {
						t.Fatal(err)
					}
				}
				if v.Label == votes.Dirty {
					pos[v.Item]++
				} else {
					neg[v.Item]++
				}
				if want := max(bits, bitsFor(pos[v.Item]+neg[v.Item])); rows.Bits() != want {
					t.Fatalf("pass %d task %d: %d-bit all-time rows at %d votes on item %d, want %d bits",
						pass, k, rows.Bits(), pos[v.Item]+neg[v.Item], v.Item, want)
				} else if want != bits {
					bits = want
					widened++
				}
				if p, q := rows.Get(v.Item); int64(p) != pos[v.Item] || int64(q) != neg[v.Item] ||
					s.MajorityDirty(v.Item) != (pos[v.Item] > neg[v.Item]) {
					t.Fatalf("pass %d task %d: item %d counts %d/%d, want %d/%d", pass, k, v.Item, p, q, pos[v.Item], neg[v.Item])
				}
				if v.Item != 0 {
					continue
				}
				heavy++
				for start := 0; start <= k; start += 4 {
					for _, bound := range []int{votes.MaxVotes4, votes.MaxVotes8, votes.MaxVotes16} {
						if d := heavy - heavyAt[start] - bound; d >= -3 && d <= 3 {
							if msg := diffWideSessions(s, ref); msg != "" {
								t.Fatalf("pass %d task %d, %d votes on item 0 since task %d: %s", pass, k, heavy-heavyAt[start], start, msg)
							}
						}
					}
				}
			}
			heavyAt = append(heavyAt, heavy)
			for _, sess := range []*Session{s, ref} {
				if err := sess.EndTask(); err != nil {
					t.Fatal(err)
				}
			}
			if msg := diffWideSessions(s, ref); msg != "" {
				t.Fatalf("pass %d after task %d: %s", pass, k, msg)
			}
		}
		if want := 3 * (1 - pass); rows.Bits() != 32 || widened != want {
			t.Fatalf("pass %d: the all-time rows widened %d times to %d bits, want %d times to 32", pass, widened, rows.Bits(), want)
		}
		for _, sess := range []*Session{s, ref} {
			if err := sess.Reset(); err != nil {
				t.Fatal(err)
			}
		}
		if rows.Bits() != 32 {
			t.Fatalf("Reset narrowed the all-time suite to %d bits", rows.Bits())
		}
		if msg := diffWideSessions(s, ref); msg != "" {
			t.Fatalf("after Reset: %s", msg)
		}
	}
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

// diffWideSessions returns the first read on which s and ref disagree, or "".
func diffWideSessions(s, ref *Session) string {
	if got, want := s.Estimates(), ref.Estimates(); !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("Estimates = %+v, want %+v", got, want)
	}
	for _, kind := range []window.Kind{window.KindCurrent, window.KindLast, window.KindDecayed} {
		got, gotErr := s.WindowEstimates(kind)
		want, wantErr := ref.WindowEstimates(kind)
		if !reflect.DeepEqual(got, want) || (gotErr == nil) != (wantErr == nil) {
			return fmt.Sprintf("WindowEstimates(%v) = %+v, %v; want %+v, %v", kind, got, gotErr, want, wantErr)
		}
	}
	for i := 0; i < s.NumItems(); i++ {
		if s.MajorityDirty(i) != ref.MajorityDirty(i) {
			return fmt.Sprintf("MajorityDirty(%d) = %v", i, s.MajorityDirty(i))
		}
	}
	if s.TotalVotes() != ref.TotalVotes() {
		return fmt.Sprintf("TotalVotes = %d, want %d", s.TotalVotes(), ref.TotalVotes())
	}
	return ""
}
