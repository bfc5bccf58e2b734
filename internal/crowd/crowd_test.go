package crowd

import (
	"math"
	"testing"

	"dqm/internal/votes"
	"dqm/internal/xrand"
)

func TestWorkerRespondPerfect(t *testing.T) {
	w := Worker{FP: 0, FN: 0}
	r := xrand.New(1)
	for i := 0; i < 100; i++ {
		if w.Respond(r, true, 1, 1) != votes.Dirty {
			t.Fatal("perfect worker missed an error")
		}
		if w.Respond(r, false, 1, 1) != votes.Clean {
			t.Fatal("perfect worker flagged a clean item")
		}
	}
}

func TestWorkerRespondRates(t *testing.T) {
	w := Worker{FP: 0.1, FN: 0.3}
	r := xrand.New(2)
	const n = 50000
	fp, fn := 0, 0
	for i := 0; i < n; i++ {
		if w.Respond(r, false, 1, 1) == votes.Dirty {
			fp++
		}
		if w.Respond(r, true, 1, 1) == votes.Clean {
			fn++
		}
	}
	if got := float64(fp) / n; math.Abs(got-0.1) > 0.01 {
		t.Fatalf("FP rate %v, want ≈0.1", got)
	}
	if got := float64(fn) / n; math.Abs(got-0.3) > 0.01 {
		t.Fatalf("FN rate %v, want ≈0.3", got)
	}
}

func TestWorkerDifficultyScaling(t *testing.T) {
	w := Worker{FN: 0.2}
	r := xrand.New(3)
	const n = 50000
	missed := 0
	for i := 0; i < n; i++ {
		if w.Respond(r, true, 2, 1) == votes.Clean {
			missed++
		}
	}
	if got := float64(missed) / n; math.Abs(got-0.4) > 0.01 {
		t.Fatalf("difficulty-2 miss rate %v, want ≈0.4", got)
	}
	// Difficulty can saturate the miss rate at 1.
	always := Worker{FN: 0.6}
	for i := 0; i < 100; i++ {
		if always.Respond(r, true, 10, 1) != votes.Clean {
			t.Fatal("saturated miss rate should always miss")
		}
	}
}

func TestFromPrecision(t *testing.T) {
	p := FromPrecision(0.8)
	if math.Abs(p.FPRate-0.2) > 1e-12 || math.Abs(p.FNRate-0.2) > 1e-12 {
		t.Fatalf("FromPrecision = %+v", p)
	}
}

func TestPool(t *testing.T) {
	r := xrand.New(4)
	p := NewPool(25, Profile{FPRate: 0.05, FNRate: 0.2, Jitter: 0.3}, r)
	if p.Size() != 25 {
		t.Fatalf("Size = %d", p.Size())
	}
	for i := 0; i < 25; i++ {
		w := p.Worker(i)
		if w.ID != i {
			t.Fatalf("worker %d has ID %d", i, w.ID)
		}
		if w.FP < 0 || w.FP > 1 || w.FN < 0 || w.FN > 1 {
			t.Fatalf("worker rates out of bounds: %+v", w)
		}
	}
	// Jitter produces heterogeneous workers.
	allSame := true
	first := p.Worker(0)
	for i := 1; i < 25; i++ {
		if p.Worker(i).FN != first.FN {
			allSame = false
			break
		}
	}
	if allSame {
		t.Fatal("jittered pool is homogeneous")
	}
	// Picks come from the pool.
	for i := 0; i < 50; i++ {
		w := p.Pick(r)
		if w.ID < 0 || w.ID >= 25 {
			t.Fatalf("picked unknown worker %d", w.ID)
		}
	}
}

func TestNewPoolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size pool did not panic")
		}
	}()
	NewPool(0, Profile{}, xrand.New(1))
}

// TestTaskVotes: a task converts to one matrix entry per item, in item
// order, each carrying the task's worker.
func TestTaskVotes(t *testing.T) {
	task := Task{Worker: 7, Items: []int{3, 5}, Labels: []votes.Label{votes.Dirty, votes.Clean}}
	vs := task.AppendVotes(nil)
	if len(vs) != 2 {
		t.Fatalf("votes = %v", vs)
	}
	if vs[0] != (votes.Vote{Item: 3, Worker: 7, Label: votes.Dirty}) {
		t.Fatalf("vote 0 = %v", vs[0])
	}
	if vs[1] != (votes.Vote{Item: 5, Worker: 7, Label: votes.Clean}) {
		t.Fatalf("vote 1 = %v", vs[1])
	}
}

func TestUniformSampler(t *testing.T) {
	u := Uniform{N: 20, RNG: xrand.New(5)}
	for i := 0; i < 100; i++ {
		s := u.Draw(5)
		if len(s) != 5 {
			t.Fatalf("Draw(5) = %v", s)
		}
		seen := make(map[int]bool)
		for _, v := range s {
			if v < 0 || v >= 20 || seen[v] {
				t.Fatalf("bad sample %v", s)
			}
			seen[v] = true
		}
	}
}

func TestSimulatorShapeAndDeterminism(t *testing.T) {
	cfg := Config{
		Truth:        func(i int) bool { return i < 10 },
		N:            100,
		Profile:      Profile{FPRate: 0.02, FNRate: 0.1},
		ItemsPerTask: 7,
		Seed:         99,
	}
	a := NewSimulator(cfg).Tasks(20)
	b := NewSimulator(cfg).Tasks(20)
	if len(a) != 20 {
		t.Fatalf("tasks = %d", len(a))
	}
	for ti := range a {
		if a[ti].Worker != b[ti].Worker || len(a[ti].Items) != 7 {
			t.Fatalf("task %d shape/determinism broken", ti)
		}
		for i := range a[ti].Items {
			if a[ti].Items[i] != b[ti].Items[i] || a[ti].Labels[i] != b[ti].Labels[i] {
				t.Fatalf("task %d not deterministic", ti)
			}
		}
	}
}

func TestSimulatorLabelsTrackTruth(t *testing.T) {
	// With low error rates, dirty items get mostly dirty votes and clean
	// items mostly clean votes.
	dirtyVotesOnDirty, votesOnDirty := 0, 0
	dirtyVotesOnClean, votesOnClean := 0, 0
	sim := NewSimulator(Config{
		Truth:        func(i int) bool { return i%5 == 0 },
		N:            500,
		Profile:      Profile{FPRate: 0.05, FNRate: 0.1},
		ItemsPerTask: 10,
		Seed:         7,
	})
	for _, task := range sim.Tasks(400) {
		for i, item := range task.Items {
			if item%5 == 0 {
				votesOnDirty++
				if task.Labels[i] == votes.Dirty {
					dirtyVotesOnDirty++
				}
			} else {
				votesOnClean++
				if task.Labels[i] == votes.Dirty {
					dirtyVotesOnClean++
				}
			}
		}
	}
	if rate := float64(dirtyVotesOnDirty) / float64(votesOnDirty); math.Abs(rate-0.9) > 0.05 {
		t.Fatalf("dirty detection rate %v, want ≈0.9", rate)
	}
	if rate := float64(dirtyVotesOnClean) / float64(votesOnClean); math.Abs(rate-0.05) > 0.03 {
		t.Fatalf("false positive rate %v, want ≈0.05", rate)
	}
}

func TestSimulatorDifficulty(t *testing.T) {
	// Items with difficulty 5 on a 0.15 FN rate are missed ≈75% of the time.
	sim := NewSimulator(Config{
		Truth:        func(i int) bool { return true },
		N:            100,
		Profile:      Profile{FNRate: 0.15},
		ItemsPerTask: 10,
		Difficulty:   func(i int) float64 { return 5 },
		Seed:         8,
	})
	missed, total := 0, 0
	for _, task := range sim.Tasks(300) {
		for _, l := range task.Labels {
			total++
			if l == votes.Clean {
				missed++
			}
		}
	}
	if rate := float64(missed) / float64(total); math.Abs(rate-0.75) > 0.04 {
		t.Fatalf("hard-item miss rate %v, want ≈0.75", rate)
	}
}

func TestSimulatorPanics(t *testing.T) {
	base := Config{Truth: func(int) bool { return false }, N: 10, ItemsPerTask: 5}
	for name, cfg := range map[string]Config{
		"zero N":       {Truth: base.Truth, N: 0, ItemsPerTask: 5},
		"nil truth":    {N: 10, ItemsPerTask: 5},
		"zero perTask": {Truth: base.Truth, N: 10, ItemsPerTask: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			NewSimulator(cfg)
		}()
	}
}

func TestQuorumTasks(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6}
	r := xrand.New(10)
	pool := NewPool(30, Profile{}, r)
	tasks := QuorumTasks(items, 3, 3, pool, func(int) bool { return false }, r)

	// Every item gets exactly 3 votes.
	counts := make(map[int]int)
	for _, task := range tasks {
		if len(task.Items) > 3 {
			t.Fatalf("task has %d items", len(task.Items))
		}
		seen := make(map[int]bool)
		for _, it := range task.Items {
			if seen[it] {
				t.Fatal("item repeated within a task")
			}
			seen[it] = true
			counts[it]++
		}
	}
	for _, it := range items {
		if counts[it] != 3 {
			t.Fatalf("item %d received %d votes", it, counts[it])
		}
	}
	// 3 passes of ceil(7/3) = 3 tasks each.
	if len(tasks) != 9 {
		t.Fatalf("tasks = %d, want 9", len(tasks))
	}
}

func TestSCMTasks(t *testing.T) {
	// The paper's Figure 3 setting: a 5% sample of 1264 pairs is ~63
	// records; with 10 records per task SCM = 3·63/10 → 19 tasks.
	if got := SCMTasks(63, 10); got != 19 {
		t.Fatalf("SCMTasks(63,10) = %d, want 19", got)
	}
	if got := SCMTasks(10, 5); got != 6 {
		t.Fatalf("SCMTasks(10,5) = %d, want 6", got)
	}
	if got := SCMTasks(10, 0); got != 0 {
		t.Fatalf("SCMTasks with zero items/task = %d", got)
	}
}

func TestOracle(t *testing.T) {
	o := Oracle{Truth: func(i int) bool { return i%2 == 0 }}
	if got := o.CountErrors([]int{0, 1, 2, 3, 4}); got != 3 {
		t.Fatalf("CountErrors = %d", got)
	}
	if got := o.CountErrors(nil); got != 0 {
		t.Fatalf("CountErrors(nil) = %d", got)
	}
}

func TestEpsilonSamplerIntegration(t *testing.T) {
	// A custom sampler plugged into the simulator is actually used.
	fixed := fixedSampler{items: []int{3, 4, 5}}
	sim := NewSimulator(Config{
		Truth:        func(int) bool { return false },
		N:            10,
		ItemsPerTask: 3,
		Sampler:      fixed,
		Seed:         1,
	})
	task := sim.NextTask()
	for i, it := range task.Items {
		if it != fixed.items[i] {
			t.Fatalf("sampler ignored: %v", task.Items)
		}
	}
}

type fixedSampler struct{ items []int }

func (f fixedSampler) Draw(k int) []int { return f.items[:k] }

func TestSimulatorFPDifficulty(t *testing.T) {
	// Confusable clean items with a 10× multiplier on a 0.03 FP rate draw
	// false positives ≈30% of the time.
	sim := NewSimulator(Config{
		Truth:        func(i int) bool { return false },
		N:            100,
		Profile:      Profile{FPRate: 0.03},
		ItemsPerTask: 10,
		FPDifficulty: func(i int) float64 { return 10 },
		Seed:         9,
	})
	flagged, total := 0, 0
	for _, task := range sim.Tasks(300) {
		for _, l := range task.Labels {
			total++
			if l == votes.Dirty {
				flagged++
			}
		}
	}
	if rate := float64(flagged) / float64(total); math.Abs(rate-0.3) > 0.04 {
		t.Fatalf("confusable FP rate %v, want ≈0.3", rate)
	}
	// The FP rate saturates at 1.
	w := Worker{FP: 0.5}
	r := xrand.New(10)
	for i := 0; i < 100; i++ {
		if w.Respond(r, false, 1, 10) != votes.Dirty {
			t.Fatal("saturated FP rate should always flag")
		}
	}
}

func TestFatigueDegradesWorkers(t *testing.T) {
	// With fatigue, later tasks carry more errors than early ones.
	run := func(fatigue float64) (early, late float64) {
		sim := NewSimulator(Config{
			Truth:        func(i int) bool { return i%4 == 0 },
			N:            400,
			Profile:      Profile{FPRate: 0.02, FNRate: 0.1, Fatigue: fatigue},
			ItemsPerTask: 10,
			PoolSize:     5, // few workers → heavy repetition
			Seed:         11,
		})
		tasks := sim.Tasks(600)
		errRate := func(ts []Task) float64 {
			wrong, total := 0, 0
			for _, task := range ts {
				for i, item := range task.Items {
					total++
					if (task.Labels[i] == votes.Dirty) != (item%4 == 0) {
						wrong++
					}
				}
			}
			return float64(wrong) / float64(total)
		}
		return errRate(tasks[:150]), errRate(tasks[450:])
	}
	earlyF, lateF := run(0.02)
	if lateF <= earlyF*1.5 {
		t.Fatalf("fatigue had no effect: early %v, late %v", earlyF, lateF)
	}
	earlyN, lateN := run(0)
	if lateN > earlyN*1.5 {
		t.Fatalf("no-fatigue control drifted: early %v, late %v", earlyN, lateN)
	}
}

// TestAppendTaskMatchesNextTask: both task paths must consume the identical
// RNG stream, so two simulators with the same seed produce the same votes
// whichever API drives them.
func TestAppendTaskMatchesNextTask(t *testing.T) {
	mkSim := func() *Simulator {
		return NewSimulator(Config{
			Truth:        func(i int) bool { return i%7 == 0 },
			N:            100,
			Profile:      Profile{FPRate: 0.05, FNRate: 0.2, Jitter: 0.3, Fatigue: 0.01},
			ItemsPerTask: 6,
			PoolSize:     5,
			Seed:         99,
		})
	}
	a, b := mkSim(), mkSim()
	var buf []votes.Vote
	for i := 0; i < 50; i++ {
		want := a.NextTask().AppendVotes(nil)
		buf = b.AppendTask(buf[:0])
		if len(buf) != len(want) {
			t.Fatalf("task %d: %d votes vs %d", i, len(buf), len(want))
		}
		for j := range want {
			if buf[j] != want[j] {
				t.Fatalf("task %d vote %d: %+v vs %+v", i, j, buf[j], want[j])
			}
		}
	}
}

// TestAppendVotesReusesBuffer: AppendVotes must append in place without
// clobbering prior contents.
func TestAppendVotesReusesBuffer(t *testing.T) {
	task := Task{Worker: 3, Items: []int{4, 5}, Labels: []votes.Label{votes.Dirty, votes.Clean}}
	buf := make([]votes.Vote, 0, 8)
	buf = task.AppendVotes(buf)
	buf = task.AppendVotes(buf)
	if len(buf) != 4 {
		t.Fatalf("buffer length %d, want 4", len(buf))
	}
	if buf[0] != (votes.Vote{Item: 4, Worker: 3, Label: votes.Dirty}) {
		t.Fatalf("first vote %+v", buf[0])
	}
	if buf[2] != buf[0] || buf[3] != buf[1] {
		t.Fatal("second append does not repeat the task's votes")
	}
}
