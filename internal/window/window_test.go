package window

import (
	"math/rand"
	"reflect"
	"testing"

	"dqm/internal/estimator"
	"dqm/internal/votes"
)

// genTasks builds a deterministic task stream over n items.
func genTasks(seed int64, tasks, n int) [][]votes.Vote {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]votes.Vote, tasks)
	for t := range out {
		task := make([]votes.Vote, 1+rng.Intn(5))
		for i := range task {
			label := votes.Clean
			if rng.Intn(2) == 0 {
				label = votes.Dirty
			}
			task[i] = votes.Vote{Item: rng.Intn(n), Worker: rng.Intn(6), Label: label}
		}
		out[t] = task
	}
	return out
}

// referenceWindow evaluates a fresh suite over tasks[start:end] — the ground
// truth a sealed window must match bit-identically.
func referenceWindow(n int, scfg estimator.SuiteConfig, tasks [][]votes.Vote, start, end int) estimator.Estimates {
	s := estimator.NewSuite(n, scfg)
	for _, task := range tasks[start:end] {
		for _, v := range task {
			s.Observe(v)
		}
		s.EndTask()
	}
	return s.EstimateAll()
}

func suiteCfg() estimator.SuiteConfig {
	return estimator.SuiteConfig{Switch: estimator.SwitchConfig{TrendWindow: 4}}
}

// feed streams one task through the ring, returning any rotation. It also
// checks the closed-form RotationAt against what actually fires.
func feed(t *testing.T, r *Ring, task []votes.Vote) (Rotation, bool) {
	t.Helper()
	for _, v := range task {
		r.Observe(v)
	}
	predicted, willFire := r.Config().RotationAt(r.Tasks() + 1)
	rot, fired := r.EndTask()
	if willFire != fired || (fired && predicted != rot) {
		t.Fatalf("RotationAt(%d) predicted (%+v, %v), EndTask fired (%+v, %v)", r.Tasks(), predicted, willFire, rot, fired)
	}
	return rot, fired
}

// TestTumblingWindowsMatchReference: every sealed tumbling window must be
// bit-identical to a fresh suite over exactly that task span, and rotations
// must fire at every Size-th boundary.
func TestTumblingWindowsMatchReference(t *testing.T) {
	const n, size, nTasks = 40, 10, 55
	tasks := genTasks(1, nTasks, n)
	r := New(n, suiteCfg(), Config{Size: size})
	var rotations []int64
	for i, task := range tasks {
		rot, fired := feed(t, r, task)
		if fired {
			rotations = append(rotations, rot.Start)
			res, err := r.Estimates(KindLast)
			if err != nil {
				t.Fatal(err)
			}
			wantStart := int64(i + 1 - size)
			if res.Start != wantStart || res.End != int64(i+1) || !res.Complete || res.Tasks != size {
				t.Fatalf("task %d: window span [%d,%d) tasks=%d complete=%v, want [%d,%d)",
					i, res.Start, res.End, res.Tasks, res.Complete, wantStart, i+1)
			}
			want := referenceWindow(n, suiteCfg(), tasks, int(res.Start), int(res.End))
			if !reflect.DeepEqual(res.Estimates, want) {
				t.Fatalf("task %d: sealed window diverges from reference replay", i)
			}
		}
	}
	wantRot := []int64{0, 10, 20, 30, 40}
	if !reflect.DeepEqual(rotations, wantRot) {
		t.Fatalf("rotation starts = %v, want %v", rotations, wantRot)
	}
}

// TestSlidingWindowsMatchReference: with Stride < Size, overlapping windows
// seal every Stride tasks and each must match its reference span.
func TestSlidingWindowsMatchReference(t *testing.T) {
	const n, size, stride, nTasks = 30, 9, 3, 40
	tasks := genTasks(2, nTasks, n)
	cfg := Config{Size: size, Stride: stride}
	if cfg.Panes() != 3 {
		t.Fatalf("Panes() = %d, want 3", cfg.Panes())
	}
	r := New(n, suiteCfg(), cfg)
	sealed := 0
	for i, task := range tasks {
		rot, fired := feed(t, r, task)
		if !fired {
			continue
		}
		sealed++
		if wantStart := int64(i + 1 - size); rot.Start != wantStart {
			t.Fatalf("task %d: rotation start %d, want %d", i, rot.Start, wantStart)
		}
		res, err := r.Estimates(KindLast)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceWindow(n, suiteCfg(), tasks, int(res.Start), int(res.End))
		if !reflect.DeepEqual(res.Estimates, want) {
			t.Fatalf("task %d: sliding window [%d,%d) diverges from reference", i, res.Start, res.End)
		}
		// The current (oldest open) window must cover the tail since its start.
		cur, err := r.Estimates(KindCurrent)
		if err != nil {
			t.Fatal(err)
		}
		if cur.End != int64(i+1) || cur.Tasks != cur.End-cur.Start || cur.Tasks >= size {
			t.Fatalf("task %d: current window [%d,%d) tasks=%d inconsistent", i, cur.Start, cur.End, cur.Tasks)
		}
		wantCur := referenceWindow(n, suiteCfg(), tasks, int(cur.Start), int(cur.End))
		if !reflect.DeepEqual(cur.Estimates, wantCur) {
			t.Fatalf("task %d: current window diverges from reference", i)
		}
	}
	if wantSealed := (nTasks-size)/stride + 1; sealed != wantSealed {
		t.Fatalf("sealed %d windows, want %d", sealed, wantSealed)
	}
}

// TestDecayedAggregate verifies the EWMA fold against a hand computation.
func TestDecayedAggregate(t *testing.T) {
	const n, size, alpha = 25, 5, 0.5
	tasks := genTasks(3, 22, n)
	r := New(n, suiteCfg(), Config{Size: size, DecayAlpha: alpha})
	var want float64
	folds := 0
	for i, task := range tasks {
		if _, fired := feed(t, r, task); !fired {
			continue
		}
		e := referenceWindow(n, suiteCfg(), tasks, i+1-size, i+1)
		if folds == 0 {
			want = e.Voting
		} else {
			want = alpha*e.Voting + (1-alpha)*want
		}
		folds++
		got, err := r.Estimates(KindDecayed)
		if err != nil {
			t.Fatal(err)
		}
		if got.Estimates.Voting != want {
			t.Fatalf("fold %d: decayed VOTING = %v, want %v", folds, got.Estimates.Voting, want)
		}
	}
	if folds == 0 {
		t.Fatal("no windows sealed")
	}
}

// TestReadsBeforeFirstWindow: Last/Decayed must fail cleanly until a window
// seals; Current must work from the first vote.
func TestReadsBeforeFirstWindow(t *testing.T) {
	r := New(10, suiteCfg(), Config{Size: 5, DecayAlpha: 0.5})
	if _, err := r.Estimates(KindLast); err == nil {
		t.Fatal("Last before first seal succeeded")
	}
	if _, err := r.Estimates(KindDecayed); err == nil {
		t.Fatal("Decayed before first seal succeeded")
	}
	r.Observe(votes.Vote{Item: 1, Worker: 0, Label: votes.Dirty})
	cur, err := r.Estimates(KindCurrent)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Estimates.Nominal != 1 {
		t.Fatalf("current Nominal = %v, want 1", cur.Estimates.Nominal)
	}
	// Decayed reads on a ring without decay configured fail with a clear error.
	r2 := New(10, suiteCfg(), Config{Size: 5})
	if _, err := r2.Estimates(KindDecayed); err == nil {
		t.Fatal("Decayed without decay_alpha succeeded")
	}
}

// TestCloneAndResetIndependence: Reset must restart the stream exactly like a
// fresh ring.
func TestCloneAndResetIndependence(t *testing.T) {
	const n = 20
	tasks := genTasks(4, 17, n)
	r := New(n, suiteCfg(), Config{Size: 4, Stride: 2, DecayAlpha: 0.3})
	for _, task := range tasks {
		feed(t, r, task)
	}

	// Reset + replay must equal a fresh ring fed the same stream.
	r.Reset()
	fresh := New(n, suiteCfg(), Config{Size: 4, Stride: 2, DecayAlpha: 0.3})
	for _, task := range tasks {
		feed(t, r, task)
		feed(t, fresh, task)
	}
	for _, k := range []Kind{KindCurrent, KindLast, KindDecayed} {
		a, _ := r.Estimates(k)
		b, _ := fresh.Estimates(k)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("reset ring diverges from fresh ring on %v", k)
		}
	}
}

// TestRotationAtEdgeConfigs runs feed's closed-form check through the shapes
// the tests above leave out: a stride of one (a rotation at every boundary
// once the first window fills), the 64-pane limit, and a Reset in the middle
// of the stream (the task count starts over).
func TestRotationAtEdgeConfigs(t *testing.T) {
	const n = 20
	tasks := genTasks(5, 150, n)
	for _, c := range []struct {
		name    string
		cfg     Config
		resetAt int
	}{
		{"stride-1", Config{Size: 6, Stride: 1}, -1},
		{"64-panes", Config{Size: 128, Stride: 2}, -1},
		{"reset-mid-stream", Config{Size: 5, Stride: 2, DecayAlpha: 0.5}, 23},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := New(n, suiteCfg(), c.cfg)
			sealed := 0
			for i, task := range tasks {
				if i == c.resetAt {
					r.Reset()
				}
				if _, fired := feed(t, r, task); fired {
					sealed++
				}
			}
			if sealed == 0 {
				t.Fatal("no window sealed")
			}
		})
	}
}

// TestConfigValidate covers the rejection matrix.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg Config
		ok  bool
	}{
		{Config{Size: 10}, true},
		{Config{Size: 10, Stride: 10}, true},
		{Config{Size: 10, Stride: 1}, true},
		{Config{Size: 64, Stride: 1}, true},
		{Config{}, false},
		{Config{Size: -1}, false},
		{Config{Size: 10, Stride: -1}, false},
		{Config{Size: 10, Stride: 11}, false},
		{Config{Size: 10, DecayAlpha: 1.5}, false},
		{Config{Size: 10, DecayAlpha: -0.1}, false},
		{Config{Size: 65, Stride: 1}, false}, // pane cap
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.cfg, err, c.ok)
		}
	}
}

// TestParseKindRoundTrip: the wire names must invert.
func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindCurrent, KindLast, KindDecayed} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = (%v, %v)", k.String(), got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("ParseKind accepted garbage")
	}
}
