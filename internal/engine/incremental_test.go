package engine

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"dqm/internal/estimator"
	"dqm/internal/votes"
	"dqm/internal/window"
	"dqm/internal/xrand"
)

// TestIncrementalEstimatesMatchUncachedRandomized is the engine-level read
// property test: a windowed session, in memory and durable, driven by a
// randomized sequence of votes, task boundaries (which rotate window panes),
// resets and a crash-replay must, at every read point, serve Estimates
// bit-identical to an evaluation of its suite.
func TestIncrementalEstimatesMatchUncachedRandomized(t *testing.T) {
	const n = 50
	verify := func(t *testing.T, s *Session, step int) {
		t.Helper()
		got := s.Estimates()
		// The suite's own evaluation is the ground truth.
		want := s.suite.EstimateAll()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: Estimates %+v != EstimateAll %+v", step, got, want)
		}
		if again := s.Estimates(); !reflect.DeepEqual(again, got) {
			t.Fatalf("step %d: repeated read differs", step)
		}
	}
	// drive runs the randomized op mix.
	drive := func(t *testing.T, s *Session, seed int64) {
		t.Helper()
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(100); {
			case op < 60:
				batch := make([]votes.Vote, 1+rng.Intn(5))
				for k := range batch {
					label := votes.Clean
					if rng.Intn(4) == 0 {
						label = votes.Dirty
					}
					batch[k] = votes.Vote{Item: rng.Intn(n), Worker: rng.Intn(6), Label: label}
				}
				if err := s.Append(batch, rng.Intn(3) == 0); err != nil {
					t.Fatal(err)
				}
			case op < 75:
				if err := s.EndTask(); err != nil {
					t.Fatal(err)
				}
			case 85 <= op && op < 88:
				if err := s.Reset(); err != nil {
					t.Fatal(err)
				}
			default: // read-only step: back-to-back reads hit the slot
			}
			if rng.Intn(2) == 0 {
				verify(t, s, step)
			}
		}
		verify(t, s, -1)
	}

	t.Run("inmemory-snapshot-restore", func(t *testing.T) {
		scfg := sessionCfg()
		scfg.Window = &window.Config{Size: 6, Stride: 3, DecayAlpha: 0.4}
		drive(t, NewSession("inc", n, scfg), 404)
	})

	t.Run("durable-crash-replay", func(t *testing.T) {
		dir := t.TempDir()
		e, err := Open(dir, durableConfig())
		if err != nil {
			t.Fatal(err)
		}
		scfg := sessionCfg()
		scfg.Window = &window.Config{Size: 6, Stride: 3, DecayAlpha: 0.4}
		s, err := e.Create("inc", n, scfg)
		if err != nil {
			t.Fatal(err)
		}
		drive(t, s, 405)
		wantFinal := s.Estimates()

		// Crash-replay: reopen the engine and require the recovered session
		// to serve the same estimates through the same read path.
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		e2, err := Open(dir, durableConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer e2.Close()
		s2, ok := e2.GetOrLoad("inc")
		if !ok {
			t.Fatal("session not recovered after reopen")
		}
		got := s2.Estimates()
		if !reflect.DeepEqual(got, wantFinal) {
			t.Fatalf("recovered estimates %+v != pre-close %+v", got, wantFinal)
		}
		if want := s2.suite.EstimateAll(); !reflect.DeepEqual(got, want) {
			t.Fatalf("recovered estimates %+v != EstimateAll %+v", got, want)
		}
	})
}

// TestIngestProceedsDuringCI pins the off-mutex CI contract under -race: while
// a bootstrap is computing (stalled via the test hook), ingest and estimate
// reads on the same session must complete instead of queueing behind it.
func TestIngestProceedsDuringCI(t *testing.T) {
	const n = 80
	cfg := SessionConfig{Suite: estimator.SuiteConfig{
		Switch: estimator.SwitchConfig{TrendWindow: 4, RetainLedgers: true},
	}}
	s := NewSession("offmu", n, cfg)
	applyOps(t, s, genOps(9, 120, n))

	entered := make(chan struct{})
	release := make(chan struct{})
	ciComputeHook = func() {
		close(entered)
		<-release
	}
	defer func() { ciComputeHook = nil }()

	type ciResult struct {
		ci  estimator.CI
		err error
	}
	done := make(chan ciResult, 1)
	go func() {
		ci, err := s.SwitchCI(150, 0.95)
		done <- ciResult{ci, err}
	}()
	<-entered // the CI holds no session lock from here until release

	// Ingest and read while the bootstrap is "computing". If either blocked
	// on the CI, this would deadlock (the CI cannot finish until released).
	ingested := make(chan struct{})
	go func() {
		defer close(ingested)
		for i := 0; i < 50; i++ {
			if err := s.Append([]votes.Vote{{Item: i % n, Worker: i % 5, Label: votes.Dirty}}, i%4 == 0); err != nil {
				t.Error(err)
				return
			}
			s.Estimates()
		}
	}()
	select {
	case <-ingested:
	case <-time.After(10 * time.Second):
		t.Fatal("ingest blocked behind an in-flight CI")
	}

	close(release)
	res := <-done
	ciComputeHook = nil // later CIs in this test run unstalled
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.ci.Lo > res.ci.Hi {
		t.Fatalf("malformed CI %+v", res.ci)
	}

	// The interval was captured before the concurrent ingest, so a fresh
	// read must recompute (version moved) rather than serve the stale cache.
	ci2, err := s.SwitchCI(150, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewSession("", n, cfg)
	applyOps(t, ref, genOps(9, 120, n))
	for i := 0; i < 50; i++ {
		if err := ref.Append([]votes.Vote{{Item: i % n, Worker: i % 5, Label: votes.Dirty}}, i%4 == 0); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ref.SwitchCI(150, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if ci2 != want {
		t.Fatalf("post-ingest CI %+v != fresh recompute %+v", ci2, want)
	}
}

// TestCISingleflightCoalesces: concurrent identical CI requests against one
// unchanged session must produce one bootstrap computation, with followers
// receiving the leader's interval.
func TestCISingleflightCoalesces(t *testing.T) {
	const n = 60
	cfg := SessionConfig{Suite: estimator.SuiteConfig{
		Switch: estimator.SwitchConfig{TrendWindow: 4, RetainLedgers: true},
	}}
	s := NewSession("flight", n, cfg)
	applyOps(t, s, genOps(23, 100, n))

	var computes int32
	var mu sync.Mutex
	gate := make(chan struct{})
	ciComputeHook = func() {
		mu.Lock()
		computes++
		mu.Unlock()
		<-gate
	}
	defer func() { ciComputeHook = nil }()

	const readers = 8
	results := make(chan estimator.CI, readers)
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		go func() {
			ci, err := s.SwitchCI(120, 0.9)
			if err != nil {
				errs <- err
				return
			}
			results <- ci
		}()
	}
	// Give followers time to join the flight, then release the leader.
	time.Sleep(50 * time.Millisecond)
	close(gate)

	var first estimator.CI
	for i := 0; i < readers; i++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case ci := <-results:
			if i == 0 {
				first = ci
			} else if ci != first {
				t.Fatalf("reader %d got %+v, leader got %+v", i, ci, first)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("CI reader hung")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if computes != 1 {
		t.Fatalf("%d bootstrap computations for %d identical requests, want 1", computes, readers)
	}
}

// TestSessionCIWorkerCountInvariant: the intervals a session serves, whose
// replicates fan over the default bootstrap pool, equal the ones its captured
// state gives on 1, 2 and 8 workers.
func TestSessionCIWorkerCountInvariant(t *testing.T) {
	const n = 70
	cfg := SessionConfig{Suite: estimator.SuiteConfig{
		Switch: estimator.SwitchConfig{TrendWindow: 4, RetainLedgers: true},
	}}
	e := New(Config{})
	defer e.Close()
	s, err := e.Create("w", n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, s, genOps(67, 90, n))
	ci, err := s.SwitchCI(300, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	chao, err := s.Chao92CI(300, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if chao.Lo > chao.Hi {
		t.Fatalf("malformed Chao92 CI %+v", chao)
	}
	for _, workers := range []int{1, 2, 8} {
		st, err := s.suite.Switch.CaptureBootstrap()
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Bootstrap(300, 0.95, xrand.New(ciSeed), workers)
		st.Release()
		if err != nil {
			t.Fatal(err)
		}
		if got != ci {
			t.Fatalf("workers=%d: SWITCH CI %+v, session served %+v", workers, got, ci)
		}
		cst := estimator.CaptureChao92(s.suite.Matrix)
		got, err = cst.Bootstrap(300, 0.95, xrand.New(ciSeed), workers)
		cst.Release()
		if err != nil {
			t.Fatal(err)
		}
		if got != chao {
			t.Fatalf("workers=%d: Chao92 CI %+v, session served %+v", workers, got, chao)
		}
	}
}
