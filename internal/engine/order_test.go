package engine

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dqm/internal/estimator"
	"dqm/internal/votes"
	"dqm/internal/window"
)

// servedState is everything a session serves: estimates, counters, version,
// every window view and, when the session keeps switch ledgers, a SWITCH
// confidence interval.
type servedState struct {
	Est                  estimator.Estimates
	Votes, Tasks         int64
	Workers              int
	Version              uint64
	Cur, Last, Dec       window.Result
	CurOK, LastOK, DecOK bool
	CI                   estimator.CI
}

func captureServed(t *testing.T, s *Session, ci bool) servedState {
	t.Helper()
	st := servedState{Est: s.Estimates(), Votes: s.TotalVotes(), Tasks: s.Tasks(), Workers: s.NumWorkers(), Version: s.Version()}
	if s.Windowed() {
		var err error
		st.Cur, err = s.WindowEstimates(window.KindCurrent)
		st.CurOK = err == nil
		st.Last, err = s.WindowEstimates(window.KindLast)
		st.LastOK = err == nil
		st.Dec, err = s.WindowEstimates(window.KindDecayed)
		st.DecOK = err == nil
	}
	if ci {
		var err error
		if st.CI, err = s.SwitchCI(20, 0.9); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestItemOrderWithinTaskIsInvisible is the replay contract of the journal's
// sorted vote records: a task's votes may come back in any order that keeps
// each item's own votes in order, because every row, fingerprint, ledger,
// worker set and count is a function of each item's vote sequence and of
// per-task totals. Two sessions get the same random tasks, one in arrival
// order and one with each task's votes stable-sorted by item (cut into the
// same Append calls, so both count the same mutations), and must serve the
// same state after every task: duplicate items, shared and mixed workers
// (some outside int32), both labels, items crossing 15 and 255 votes so the
// rows widen 4→8→16 bits, resets, a window, and switch ledgers for SwitchCI.
func TestItemOrderWithinTaskIsInvisible(t *testing.T) {
	win := window.Config{Size: 5, Stride: 2, DecayAlpha: 0.5}
	cfgs := map[string]SessionConfig{
		"plain": sessionCfg(),
		"windowed": {
			Suite:  estimator.SuiteConfig{Switch: estimator.SwitchConfig{TrendWindow: 4, RetainLedgers: true}},
			Window: &win,
		},
		"confidence": {Suite: estimator.SuiteConfig{Switch: estimator.SwitchConfig{RetainLedgers: true}}},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			const n, tasks = 40, 500
			arrival := NewSession("arrival", n, cfg)
			sorted := NewSession("sorted", n, cfg)
			ci := cfg.Suite.Switch.RetainLedgers
			rng := rand.New(rand.NewSource(int64(len(name))))
			for task := 0; task < tasks; task++ {
				if task == tasks/2 {
					for _, s := range []*Session{arrival, sorted} {
						if err := s.Reset(); err != nil {
							t.Fatal(err)
						}
					}
				}
				run := make([]votes.Vote, 1+rng.Intn(30))
				worker := rng.Intn(20)
				mixed := rng.Intn(3) == 0
				for i := range run {
					// Half the votes fall on four items, so those cross 255.
					item := rng.Intn(n)
					if rng.Intn(2) == 0 {
						item = rng.Intn(4)
					}
					if mixed {
						worker = rng.Intn(20)
						if rng.Intn(8) == 0 {
							worker = 1<<40 + rng.Intn(3)
						}
					}
					run[i] = votes.Vote{Item: item, Worker: worker, Label: votes.Label(rng.Intn(2))}
				}
				byItem := slices.Clone(run)
				slices.SortStableFunc(byItem, func(a, b votes.Vote) int { return cmp.Compare(a.Item, b.Item) })
				// The same cuts into Append calls on both sides; the last
				// call ends the task.
				cuts := []int{0, rng.Intn(len(run) + 1), len(run)}
				slices.Sort(cuts)
				for c := 1; c < len(cuts); c++ {
					end := c == len(cuts)-1
					if err := arrival.Append(run[cuts[c-1]:cuts[c]], end); err != nil {
						t.Fatal(err)
					}
					if err := sorted.Append(byItem[cuts[c-1]:cuts[c]], end); err != nil {
						t.Fatal(err)
					}
				}
				withCI := ci && task%25 == 0
				if a, s := captureServed(t, arrival, withCI), captureServed(t, sorted, withCI); !reflect.DeepEqual(a, s) {
					t.Fatalf("task %d: sorted replay serves\n%+v\narrival order serves\n%+v", task, s, a)
				}
			}
			if w := arrival.suite.Matrix.Rows().Bits(); w < 16 {
				t.Fatalf("rows are %d bits wide; the stream must widen them to 16", w)
			}
		})
	}
}
