package policy

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeSource is a minimal Source: Set mutates it like an engine bump, and
// Inputs counts its calls.
type fakeSource struct {
	mu       sync.Mutex
	version  uint64
	in       Inputs
	inErr    error
	inCalls  atomic.Int64
	needSeen atomic.Value // Needs
}

func (f *fakeSource) Version() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.version
}

func (f *fakeSource) Inputs(need Needs) (Inputs, error) {
	f.inCalls.Add(1)
	f.needSeen.Store(need)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.inErr != nil {
		return Inputs{}, f.inErr
	}
	in := f.in
	in.Version = f.version
	return in, nil
}

// Set mutates the source, advancing its version.
func (f *fakeSource) Set(in Inputs) {
	f.mu.Lock()
	f.version++
	f.in = in
	f.mu.Unlock()
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

func quarantinePolicy() *Policy {
	return &Policy{Rules: []Rule{{Name: "dirty", Metric: MetricRemaining, Op: ">", Value: 10}}}
}

func TestGateSeedsFrameSynchronously(t *testing.T) {
	src := &fakeSource{}
	src.Set(Inputs{Remaining: 50})
	g := NewGate("s", quarantinePolicy(), src)
	f := g.Frame()
	if f == nil {
		t.Fatal("frame nil after NewGate")
	}
	if f.Action != ActionQuarantine || f.Version != 1 {
		t.Fatalf("seed frame = action %v version %d, want quarantine v1", f.Action, f.Version)
	}
	if !bytes.Contains(f.Body, []byte(`"action":"quarantine"`)) {
		t.Fatalf("body %s lacks action", f.Body)
	}
	if f.Decision.Session != "s" {
		t.Fatalf("decision session = %q", f.Decision.Session)
	}
	if calls := src.inCalls.Load(); calls != 1 {
		t.Fatalf("NewGate read inputs %d times, want 1 (a passive gate evaluates only when asked)", calls)
	}
}

func TestGateSetPolicySynchronous(t *testing.T) {
	src := &fakeSource{}
	src.Set(Inputs{Remaining: 50})
	g := NewGate("s", quarantinePolicy(), src)
	if g.Frame().Action != ActionQuarantine {
		t.Fatalf("seed = %v", g.Frame().Action)
	}
	f, from, changed := g.SetPolicy(&Policy{Rules: []Rule{{Name: "lax", Metric: MetricRemaining, Op: ">", Value: 1000}}})
	if g.Frame() != f || f.Action != ActionProceed {
		t.Fatalf("after SetPolicy frame = %v, want proceed immediately", g.Frame().Action)
	}
	if !changed || from != ActionQuarantine {
		t.Fatalf("SetPolicy reported changed=%v from %v, want a transition from quarantine", changed, from)
	}
	if _, _, changed := g.Evaluate(); changed {
		t.Fatal("re-evaluation at the same action reported a transition")
	}
}

func TestGateInputsErrorKeepsPreviousFrame(t *testing.T) {
	src := &fakeSource{}
	src.Set(Inputs{Remaining: 50})
	g := NewGate("s", quarantinePolicy(), src)
	want := g.Frame()
	src.mu.Lock()
	src.inErr = errTest
	src.mu.Unlock()
	src.Set(Inputs{})
	if f, _, changed := g.Evaluate(); changed || f != want {
		t.Fatalf("Evaluate on inputs error = (%+v, changed=%v), want the previous frame unchanged", f, changed)
	}
	if got := g.Frame(); got.Version != want.Version || got.Action != want.Action {
		t.Fatalf("frame changed on inputs error: %+v", got)
	}
}

var errTest = &net_Error{}

type net_Error struct{}

func (*net_Error) Error() string { return "transient" }

func TestGateNeedsPropagated(t *testing.T) {
	src := &fakeSource{}
	src.Set(Inputs{})
	p := &Policy{
		Rules: []Rule{{Name: "ci", Metric: MetricCIUpper, Op: ">", Value: 9}},
		CI:    &CIParams{Level: 0.9, Replicates: 50},
	}
	NewGate("s", p, src)
	need := src.needSeen.Load().(Needs)
	if !need.CI || need.CILevel != 0.9 || need.CIReplicates != 50 {
		t.Fatalf("need = %+v", need)
	}
}

func TestDispatcherDeliversWithRetry(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			w.WriteHeader(http.StatusInternalServerError) // fail first attempt
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	d := NewDispatcher(DispatcherConfig{BaseBackoff: time.Millisecond, MaxAttempts: 3})
	defer d.Close()
	if !d.Enqueue(Delivery{URL: srv.URL, Body: []byte(`{"action":"quarantine"}`)}) {
		t.Fatal("enqueue refused")
	}
	waitFor(t, "delivery", func() bool { return d.Deliveries() == 1 })
	if hits.Load() != 2 {
		t.Fatalf("server hit %d times, want 2 (one retry)", hits.Load())
	}
	if d.DeadLetters() != 0 {
		t.Fatalf("dead letters = %d", d.DeadLetters())
	}
}

func TestDispatcherDeadLettersAfterExhaustion(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	d := NewDispatcher(DispatcherConfig{BaseBackoff: time.Millisecond, MaxAttempts: 2})
	defer d.Close()
	d.Enqueue(Delivery{URL: srv.URL, Body: []byte(`{}`)})
	waitFor(t, "dead letter", func() bool { return d.DeadLetters() == 1 })
	if d.Deliveries() != 0 {
		t.Fatalf("deliveries = %d", d.Deliveries())
	}
}

func TestDispatcherQueueOverflowCountsDeadLetter(t *testing.T) {
	block := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	defer srv.Close()
	defer close(block)
	d := NewDispatcher(DispatcherConfig{QueueSize: 1, Workers: 1, MaxAttempts: 1, Timeout: 10 * time.Second})
	defer d.Close()
	d.Enqueue(Delivery{URL: srv.URL, Body: []byte(`{}`)}) // occupies the worker
	waitFor(t, "worker busy", func() bool { return len(d.queue) == 0 })
	d.Enqueue(Delivery{URL: srv.URL, Body: []byte(`{}`)}) // fills the queue
	if d.Enqueue(Delivery{URL: srv.URL, Body: []byte(`{}`)}) {
		t.Fatal("enqueue succeeded on full queue")
	}
	if d.DeadLetters() != 1 {
		t.Fatalf("dead letters = %d, want 1", d.DeadLetters())
	}

	// Close cancels the attempt in flight instead of waiting out its 10 s
	// timeout, and neither it nor the queued delivery becomes a dead letter.
	start := time.Now()
	d.Close()
	if took := time.Since(start); took >= time.Second {
		t.Fatalf("Close took %v with an attempt in flight, want < 1s", took)
	}
	if d.DeadLetters() != 1 || d.Deliveries() != 0 {
		t.Fatalf("after Close: dead letters = %d, deliveries = %d, want 1 and 0", d.DeadLetters(), d.Deliveries())
	}
}

func TestDispatcherPerDeliveryOverrides(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusBadGateway)
	}))
	defer srv.Close()
	d := NewDispatcher(DispatcherConfig{BaseBackoff: time.Millisecond, MaxAttempts: 5})
	defer d.Close()
	d.Enqueue(Delivery{URL: srv.URL, Body: []byte(`{}`), MaxAttempts: 1})
	waitFor(t, "dead letter", func() bool { return d.DeadLetters() == 1 })
	if hits.Load() != 1 {
		t.Fatalf("hits = %d, want exactly 1 (override MaxAttempts)", hits.Load())
	}
}
