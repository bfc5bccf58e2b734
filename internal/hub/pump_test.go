package hub

import (
	"bytes"
	"context"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dqm/internal/policy"
)

func quarantinePolicy() *policy.Policy {
	return &policy.Policy{Rules: []policy.Rule{{Name: "dirty", Metric: policy.MetricRemaining, Op: ">", Value: 10}}}
}

func waitFor(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// pumpGoroutines counts running pump goroutines in the goroutine profile.
func pumpGoroutines() int {
	var buf bytes.Buffer
	_ = pprof.Lookup("goroutine").WriteTo(&buf, 2)
	return strings.Count(buf.String(), "hub.(*sessionHub).pump(")
}

// waitPumps waits until exactly want pumps run: Drop and the last consumer
// leaving retire a pump asynchronously.
func waitPumps(t *testing.T, want int) {
	t.Helper()
	waitFor(t, "pump count", func() bool { return pumpGoroutines() == want })
}

// TestGateEventDrivenReEvaluation: the pump evaluates an attached gate only
// when the session mutates — never while it is idle — and reports every
// action change, both ways, to OnTransition.
func TestGateEventDrivenReEvaluation(t *testing.T) {
	var transitions atomic.Int64
	h, sess, _ := testHub(t, Config{
		OnTransition: func(g *policy.Gate, from policy.Action, f *policy.Frame) {
			if transitions.Add(1) == 1 {
				if from != policy.ActionProceed || f.Action != policy.ActionQuarantine {
					t.Errorf("transition %v -> %v, want proceed -> quarantine", from, f.Action)
				}
				if len(f.Body) == 0 || f.Decision.Action != "quarantine" {
					t.Errorf("transition payload dec=%+v body=%d bytes", f.Decision, len(f.Body))
				}
			}
		},
	})
	sess.set(0)
	g, ok := h.AttachGate("s", quarantinePolicy())
	if !ok {
		t.Fatal("AttachGate failed")
	}
	if g.Frame().Action != policy.ActionProceed {
		t.Fatalf("seed action = %v", g.Frame().Action)
	}
	calls := len(sess.evalTimes())

	// No mutation → no evaluation (event-driven, zero idle cost).
	time.Sleep(50 * time.Millisecond)
	if got := len(sess.evalTimes()); got != calls {
		t.Fatalf("gate evaluated %d times while idle", got-calls)
	}

	sess.set(50)
	waitFor(t, "quarantine frame", func() bool { return g.Frame().Action == policy.ActionQuarantine })
	if transitions.Load() != 1 {
		t.Fatalf("transitions = %d, want 1", transitions.Load())
	}
	if g.Frame().Version != 2 {
		t.Fatalf("frame version = %d, want 2", g.Frame().Version)
	}

	// Back below threshold → transition back.
	sess.set(1)
	waitFor(t, "proceed frame", func() bool { return g.Frame().Action == policy.ActionProceed })
	waitFor(t, "second transition", func() bool { return transitions.Load() == 2 })
}

// TestGateCoalescesBursts: a burst of mutations inside the gate floor
// coalesces into a few evaluations, the last of which reaches the final
// version.
func TestGateCoalescesBursts(t *testing.T) {
	h, sess, _ := testHub(t, Config{GateMinInterval: 20 * time.Millisecond})
	sess.set(0)
	g, _ := h.AttachGate("s", quarantinePolicy())
	before := len(sess.evalTimes())
	for i := 0; i < 100; i++ {
		sess.set(int64(i))
	}
	waitFor(t, "frame to catch up", func() bool { return !g.Stale() })
	if evals := len(sess.evalTimes()) - before; evals > 10 {
		t.Fatalf("burst of 100 mutations triggered %d evaluations, want coalescing", evals)
	}
}

// TestGatedPumpWakesOncePerFloor: the pump of a gated session with no
// subscriber leaves the notifier unread inside the gate floor, so a steady
// mutation stream wakes it about once per floor, not once per mutation.
func TestGatedPumpWakesOncePerFloor(t *testing.T) {
	const floor = 50 * time.Millisecond
	h, sess, _ := testHub(t, Config{GateMinInterval: floor})
	sess.bump()
	g, _ := h.AttachGate("s", quarantinePolicy())
	waitFor(t, "the pump's notifier", func() bool { return sess.notifierCount() == 1 })
	before := sess.versionReads.Load()
	start := time.Now()
	for i := 0; i < 200; i++ {
		sess.bump()
		time.Sleep(time.Millisecond)
	}
	// Each pump pass reads the version at most twice (its own check and
	// the gate's Stale).
	reads, floors := sess.versionReads.Load()-before, int64(time.Since(start)/floor)+2
	if reads > 4*floors {
		t.Fatalf("pump read the version %d times over %d gate floors: it woke per mutation", reads, floors)
	}
	waitFor(t, "gate to reach the final version", func() bool { return !g.Stale() })
}

// TestGateTeardownUnregisters: every way a gate leaves — DetachGate with no
// subscriber, Drop, Close — unregisters the session's notifier.
func TestGateTeardownUnregisters(t *testing.T) {
	h, sess, _ := testHub(t, Config{})
	sess.bump()
	attach := func() {
		t.Helper()
		if _, ok := h.AttachGate("s", quarantinePolicy()); !ok {
			t.Fatal("AttachGate failed")
		}
		waitFor(t, "the pump's notifier", func() bool { return sess.notifierCount() == 1 })
	}
	attach()
	h.DetachGate("s")
	h.DetachGate("s") // idempotent
	waitFor(t, "notifier gone after DetachGate", func() bool { return sess.notifierCount() == 0 })
	attach()
	h.Drop("s")
	waitFor(t, "notifier gone after Drop", func() bool { return sess.notifierCount() == 0 })
	attach()
	h.Close()
	if n := sess.notifierCount(); n != 0 {
		t.Fatalf("%d notifiers still registered after Close returned", n)
	}
	if _, ok := h.AttachGate("s", quarantinePolicy()); ok {
		t.Fatal("AttachGate succeeded on a closed hub")
	}
}

// TestOneNotifierAndPumpPerSession: a watched, a gated, and a watched and
// gated session each run exactly one pump on exactly one notifier, and each
// pump retires with its last consumer.
func TestOneNotifierAndPumpPerSession(t *testing.T) {
	waitPumps(t, 0)
	sessions := map[string]*fakeSession{"watched": {}, "gated": {}, "both": {}}
	h := New(Config{
		Resolve: func(id string) (Session, bool) {
			s, ok := sessions[id]
			return s, ok
		},
		Encode: func(s Session, view View) ([]byte, uint64, error) { return []byte(`{}`), s.Version(), nil },
	})
	defer h.Close()
	watchedSub, _ := h.Subscribe("watched", ViewAll, 0, 0)
	bothSub, _ := h.Subscribe("both", ViewAll, 0, 0)
	h.AttachGate("gated", quarantinePolicy())
	h.AttachGate("both", quarantinePolicy())
	for _, s := range sessions {
		s.set(20)
	}
	waitFor(t, "gates to evaluate", func() bool { return !h.Gate("gated").Stale() && !h.Gate("both").Stale() })
	waitFor(t, "one notifier per session", func() bool {
		for _, s := range sessions {
			if s.notifierCount() != 1 {
				return false
			}
		}
		return true
	})
	if n := pumpGoroutines(); n != 3 {
		t.Fatalf("%d pumps for 3 sessions, want 3", n)
	}
	time.Sleep(10 * time.Millisecond)
	for id, s := range sessions {
		if n := s.notifierCount(); n != 1 {
			t.Errorf("%s: %d notifiers registered, want 1", id, n)
		}
	}

	watchedSub.Close()
	h.DetachGate("gated")
	waitPumps(t, 1)
	bothSub.Close() // the gate keeps the pump
	time.Sleep(10 * time.Millisecond)
	if n := pumpGoroutines(); n != 1 {
		t.Fatalf("%d pumps after the gated session's subscriber left, want 1", n)
	}
	h.DetachGate("both")
	waitPumps(t, 0)
	for id, s := range sessions {
		if n := s.notifierCount(); n != 0 {
			t.Errorf("%s: %d notifiers registered with no consumer left, want 0", id, n)
		}
	}
}

// TestWatchedAndGatedFloors: one pump serves both consumers of a watched and
// gated session, each behind its own floor — frames follow the short
// publish floor while the gate evaluates at most once per gate floor and
// still reaches the final version.
func TestWatchedAndGatedFloors(t *testing.T) {
	const (
		gateFloor = 50 * time.Millisecond
		bumps     = 150
	)
	h, sess, _ := testHub(t, Config{MinInterval: time.Millisecond, GateMinInterval: gateFloor})
	sess.bump()
	sub, ok := h.Subscribe("s", ViewAll, 1, 0)
	if !ok {
		t.Fatal("Subscribe failed")
	}
	defer sub.Close()
	g, _ := h.AttachGate("s", quarantinePolicy())
	seeded := len(sess.evalTimes())

	var frames atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for {
			ev, ok := sub.Next(ctx)
			if !ok {
				return
			}
			if !ev.Heartbeat {
				frames.Add(1)
			}
			if ev.Version == bumps+1 {
				return
			}
		}
	}()
	start := time.Now()
	for i := 0; i < bumps; i++ {
		sess.set(int64(i % 20))
		time.Sleep(2 * time.Millisecond)
	}
	elapsed := time.Since(start)
	<-done
	waitFor(t, "gate to reach the final version", func() bool { return !g.Stale() })

	evals := sess.evalTimes()[seeded:]
	for i := 1; i < len(evals); i++ {
		if gap := evals[i].Sub(evals[i-1]); gap < gateFloor {
			t.Fatalf("evaluations %d and %d only %v apart, want at least the gate floor %v", i-1, i, gap, gateFloor)
		}
	}
	if max := int(elapsed/gateFloor) + 2; len(evals) > max {
		t.Fatalf("%d evaluations in %v, want at most %d", len(evals), elapsed, max)
	}
	if f := frames.Load(); f < 3*int64(len(evals)) {
		t.Fatalf("%d frames against %d gate evaluations: frames should follow the 1 ms publish floor", f, len(evals))
	}
}

// TestCloseStopsPumpsFirst: Close returns only after every pump exited, so
// no transition fires afterwards even while the session keeps mutating.
func TestCloseStopsPumpsFirst(t *testing.T) {
	waitPumps(t, 0)
	var closed atomic.Bool
	var late atomic.Int64
	h, sess, _ := testHub(t, Config{
		OnTransition: func(*policy.Gate, policy.Action, *policy.Frame) {
			if closed.Load() {
				late.Add(1)
			}
		},
	})
	sess.set(0)
	h.AttachGate("s", quarantinePolicy())
	sub, _ := h.Subscribe("s", ViewAll, 0, 0)
	stop := make(chan struct{})
	ingested := make(chan struct{})
	go func() {
		defer close(ingested)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sess.set(int64(i%2) * 50) // flips the action every mutation
			time.Sleep(100 * time.Microsecond)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	h.Close()
	closed.Store(true)
	time.Sleep(20 * time.Millisecond)
	close(stop)
	<-ingested
	if n := late.Load(); n != 0 {
		t.Fatalf("%d transitions fired after Close returned", n)
	}
	if n := pumpGoroutines(); n != 0 {
		t.Fatalf("%d pumps running after Close returned", n)
	}
	if n := sess.notifierCount(); n != 0 {
		t.Fatalf("%d notifiers registered after Close returned", n)
	}
	// The stream may hand out the frame it had pending, then ends.
	ended := false
	for i := 0; i < 2 && !ended; i++ {
		_, ok := sub.Next(context.Background())
		ended = !ok
	}
	if !ended {
		t.Fatal("subscriber stream survived Close")
	}
	if _, _, _, ok := h.Payload("s", ViewAll); ok {
		t.Fatal("Payload served after Close")
	}
}

// TestEntryNotBoundToDroppedIncarnation: an eviction whose Drop lands while
// the hub resolves the session must not leave an entry bound to the evicted
// incarnation, or every later Payload and Subscribe is served from its
// frozen state.
func TestEntryNotBoundToDroppedIncarnation(t *testing.T) {
	evicted, revived := &fakeSession{}, &fakeSession{}
	evicted.bump()
	for i := 0; i < 3; i++ {
		revived.bump()
	}
	var (
		h        *Hub
		resolves atomic.Int64
		dropped  = make(chan struct{})
	)
	h = New(Config{
		Resolve: func(id string) (Session, bool) {
			if resolves.Add(1) > 1 {
				return revived, true
			}
			// The session is evicted between this lookup and the hub
			// storing its entry.
			go func() {
				h.Drop(id)
				close(dropped)
			}()
			select {
			case <-dropped:
			case <-time.After(time.Second):
			}
			return evicted, true
		},
		Encode: func(s Session, view View) ([]byte, uint64, error) { return []byte(`{}`), s.Version(), nil },
	})
	defer h.Close()
	h.Payload("s", ViewAll)
	<-dropped
	if _, v, _, ok := h.Payload("s", ViewAll); !ok || v != 3 {
		t.Fatalf("Payload after the eviction = (v=%d ok=%v), want the revived incarnation's v=3", v, ok)
	}
	sub, ok := h.Subscribe("s", ViewAll, 0, 0)
	if !ok {
		t.Fatal("Subscribe failed")
	}
	defer sub.Close()
	if ev := nextOrFail(t, sub, time.Second); ev.Version != 3 {
		t.Fatalf("subscriber got version %d, want the revived incarnation's 3", ev.Version)
	}
}

// TestResolveMayReenterDrop: reviving one session can evict another, whose
// eviction callback calls Drop from inside Resolve; the hub must hold no
// lock Drop needs across Resolve.
func TestResolveMayReenterDrop(t *testing.T) {
	sess := &fakeSession{}
	var (
		h        *Hub
		resolves atomic.Int64
	)
	h = New(Config{
		Resolve: func(id string) (Session, bool) {
			if resolves.Add(1) == 1 {
				h.Drop("victim")
			}
			return sess, true
		},
		Encode: func(s Session, view View) ([]byte, uint64, error) { return []byte(`{}`), s.Version(), nil },
	})
	defer h.Close()
	done := make(chan bool, 1)
	go func() {
		_, _, _, ok := h.Payload("s", ViewAll)
		done <- ok
	}()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("Payload failed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Payload deadlocked on a Drop from inside Resolve")
	}
}
