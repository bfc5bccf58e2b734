package hub

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeSession implements Session with the same notifier contract as the
// engine: bump() advances the version and pokes every registered channel
// non-blockingly.
type fakeSession struct {
	version atomic.Uint64

	mu        sync.Mutex
	notifiers []chan<- struct{}
}

func (f *fakeSession) Version() uint64 { return f.version.Load() }

func (f *fakeSession) Notify(ch chan<- struct{}) {
	f.mu.Lock()
	f.notifiers = append(f.notifiers, ch)
	f.mu.Unlock()
}

func (f *fakeSession) StopNotify(ch chan<- struct{}) {
	f.mu.Lock()
	for i, c := range f.notifiers {
		if c == ch {
			f.notifiers = append(f.notifiers[:i], f.notifiers[i+1:]...)
			break
		}
	}
	f.mu.Unlock()
}

func (f *fakeSession) bump() {
	f.version.Add(1)
	f.mu.Lock()
	for _, ch := range f.notifiers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	f.mu.Unlock()
}

// testHub wires a hub over a single fake session with a counting encoder.
func testHub(t *testing.T, cfg Config) (*Hub, *fakeSession, *atomic.Int64) {
	t.Helper()
	sess := &fakeSession{}
	encodes := &atomic.Int64{}
	if cfg.Resolve == nil {
		cfg.Resolve = func(id string) (Session, bool) {
			if id != "s" {
				return nil, false
			}
			return sess, true
		}
	}
	if cfg.Encode == nil {
		cfg.Encode = func(s Session, view View) ([]byte, uint64, error) {
			v := s.Version()
			encodes.Add(1)
			return []byte(fmt.Sprintf(`{"view":%d,"version":%d}`, view, v)), v, nil
		}
	}
	h := New(cfg)
	t.Cleanup(func() { h.Drop("s") })
	return h, sess, encodes
}

func nextOrFail(t *testing.T, sub *Subscriber, timeout time.Duration) Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	ev, ok := sub.Next(ctx)
	if !ok {
		t.Fatalf("Next returned ok=false, want an event")
	}
	return ev
}

func TestSubscribeUnknownSession(t *testing.T) {
	h, _, _ := testHub(t, Config{})
	if _, ok := h.Subscribe("nope", ViewAll, 0, 0); ok {
		t.Fatalf("Subscribe to unknown session succeeded")
	}
	if _, _, _, ok := h.Payload("nope", ViewAll); ok {
		t.Fatalf("Payload for unknown session succeeded")
	}
}

func TestDeliversLatestAndResumes(t *testing.T) {
	h, sess, _ := testHub(t, Config{})
	sess.bump()
	sess.bump()

	sub, ok := h.Subscribe("s", ViewAll, 0, 0)
	if !ok {
		t.Fatalf("Subscribe failed")
	}
	defer sub.Close()

	// Cursor 0, version 2: immediate delivery of the latest frame.
	ev := nextOrFail(t, sub, time.Second)
	if ev.Version != 2 {
		t.Fatalf("Version = %d, want 2", ev.Version)
	}
	want := "id: 2\nevent: estimates\ndata: {\"view\":0,\"version\":2}\n\n"
	if string(ev.SSE) != want {
		t.Fatalf("SSE frame = %q, want %q", ev.SSE, want)
	}

	// A resumed subscriber at the latest cursor sits idle.
	cur, ok := h.Subscribe("s", ViewAll, 2, 0)
	if !ok {
		t.Fatalf("Subscribe failed")
	}
	defer cur.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if _, ok := cur.Next(ctx); ok {
		cancel()
		t.Fatalf("caught-up subscriber delivered an event while idle")
	}
	cancel()

	// A stale cursor re-delivers the latest version (at-least-once).
	old, ok := h.Subscribe("s", ViewAll, 1, 0)
	if !ok {
		t.Fatalf("Subscribe failed")
	}
	defer old.Close()
	if ev := nextOrFail(t, old, time.Second); ev.Version != 2 {
		t.Fatalf("resume Version = %d, want 2", ev.Version)
	}

	// New mutation wakes the idle subscriber without polling.
	go func() {
		time.Sleep(20 * time.Millisecond)
		sess.bump()
	}()
	if ev := nextOrFail(t, sub, time.Second); ev.Version != 3 {
		t.Fatalf("post-bump Version = %d, want 3", ev.Version)
	}
}

func TestEncodeOncePerVersionAcrossSubscribers(t *testing.T) {
	h, sess, encodes := testHub(t, Config{})
	sess.bump()

	const n = 64
	subs := make([]*Subscriber, n)
	for i := range subs {
		sub, ok := h.Subscribe("s", ViewAll, 0, 0)
		if !ok {
			t.Fatalf("Subscribe %d failed", i)
		}
		defer sub.Close()
		subs[i] = sub
	}
	var wg sync.WaitGroup
	for _, sub := range subs {
		wg.Add(1)
		go func(sub *Subscriber) {
			defer wg.Done()
			if ev := nextOrFail(t, sub, 2*time.Second); ev.Version != 1 {
				t.Errorf("Version = %d, want 1", ev.Version)
			}
		}(sub)
	}
	wg.Wait()
	if got := encodes.Load(); got != 1 {
		t.Fatalf("encodes = %d for %d subscribers on one version, want 1", got, n)
	}

	// Distinct views encode separately, still once each.
	if _, _, _, ok := h.Payload("s", ViewCurrent); !ok {
		t.Fatalf("Payload failed")
	}
	if _, _, _, ok := h.Payload("s", ViewCurrent); !ok {
		t.Fatalf("Payload failed")
	}
	if got := encodes.Load(); got != 2 {
		t.Fatalf("encodes = %d after cached second-view reads, want 2", got)
	}
}

func TestCoalesceToLatest(t *testing.T) {
	h, sess, _ := testHub(t, Config{})
	sess.bump()
	sub, ok := h.Subscribe("s", ViewAll, 0, 50*time.Millisecond)
	if !ok {
		t.Fatalf("Subscribe failed")
	}
	defer sub.Close()
	if ev := nextOrFail(t, sub, time.Second); ev.Version != 1 {
		t.Fatalf("Version = %d, want 1", ev.Version)
	}
	// Burst of mutations inside the subscriber's interval: exactly one more
	// delivery, carrying the final version.
	for i := 0; i < 25; i++ {
		sess.bump()
		time.Sleep(time.Millisecond)
	}
	ev := nextOrFail(t, sub, time.Second)
	if ev.Version != 26 {
		t.Fatalf("coalesced Version = %d, want 26", ev.Version)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel()
	if extra, ok := sub.Next(ctx); ok {
		t.Fatalf("expected silence after coalesced delivery, got version %d", extra.Version)
	}
}

func TestDropEndsStream(t *testing.T) {
	h, sess, _ := testHub(t, Config{})
	sess.bump()
	sub, ok := h.Subscribe("s", ViewAll, 1, 0)
	if !ok {
		t.Fatalf("Subscribe failed")
	}
	done := make(chan bool, 1)
	go func() {
		_, ok := sub.Next(context.Background())
		done <- ok
	}()
	time.Sleep(20 * time.Millisecond)
	h.Drop("s")
	select {
	case ok := <-done:
		if ok {
			t.Fatalf("Next returned ok=true after Drop")
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("Next did not return after Drop")
	}
	sub.Close() // must be safe after Drop

	// The id resolves to a fresh hub session afterwards.
	if _, v, _, ok := h.Payload("s", ViewAll); !ok || v != 1 {
		t.Fatalf("Payload after Drop = (v=%d ok=%v), want v=1 ok=true", v, ok)
	}
}

func TestEncodeErrorAdvancesCursor(t *testing.T) {
	sess := &fakeSession{}
	var encodes atomic.Int64
	fail := atomic.Bool{}
	fail.Store(true)
	h := New(Config{
		Resolve: func(id string) (Session, bool) { return sess, true },
		Encode: func(s Session, view View) ([]byte, uint64, error) {
			v := s.Version()
			encodes.Add(1)
			if fail.Load() {
				return nil, v, errors.New("not ready")
			}
			return []byte(`{}`), v, nil
		},
	})
	defer h.Drop("s")
	sess.bump()
	sub, ok := h.Subscribe("s", ViewAll, 0, 0)
	if !ok {
		t.Fatalf("Subscribe failed")
	}
	defer sub.Close()

	// The failing frame is swallowed; the subscriber parks instead of
	// re-encoding every wake.
	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	if _, ok := sub.Next(ctx); ok {
		cancel()
		t.Fatalf("Next delivered an event for a failing encode")
	}
	cancel()
	if got := encodes.Load(); got != 1 {
		t.Fatalf("encodes = %d while parked on error frame, want 1", got)
	}

	// Next version succeeds and is delivered.
	fail.Store(false)
	sess.bump()
	if ev := nextOrFail(t, sub, time.Second); ev.Version != 2 {
		t.Fatalf("Version = %d, want 2", ev.Version)
	}
}

func TestPayloadEncodesOncePerVersion(t *testing.T) {
	h, sess, encodes := testHub(t, Config{})
	sess.bump()
	if _, _, _, ok := h.Payload("s", ViewAll); !ok {
		t.Fatalf("Payload failed")
	}
	if _, _, _, ok := h.Payload("s", ViewAll); !ok {
		t.Fatalf("Payload failed")
	}
	if got := encodes.Load(); got != 1 {
		t.Fatalf("encodes = %d for cached reads, want 1", got)
	}
}

func TestHeartbeatWhenIdle(t *testing.T) {
	h, sess, _ := testHub(t, Config{Heartbeat: 30 * time.Millisecond})
	sess.bump()
	sub, ok := h.Subscribe("s", ViewAll, 1, 0)
	if !ok {
		t.Fatalf("Subscribe failed")
	}
	defer sub.Close()
	ev := nextOrFail(t, sub, time.Second)
	if !ev.Heartbeat {
		t.Fatalf("idle subscriber got a non-heartbeat event: version %d", ev.Version)
	}
	if string(ev.SSE) != ": keep-alive\n\n" {
		t.Fatalf("heartbeat SSE = %q", ev.SSE)
	}
}

// TestMonotonicSubsequenceProperty is the hub's core delivery guarantee:
// under concurrent ingest, every subscriber observes a strictly increasing
// version subsequence that ends at the session's final version.
func TestMonotonicSubsequenceProperty(t *testing.T) {
	h, sess, _ := testHub(t, Config{MinInterval: time.Millisecond})
	const (
		bumps = 300
		nsubs = 8
	)
	var wg sync.WaitGroup
	seqs := make([][]uint64, nsubs)
	for i := 0; i < nsubs; i++ {
		sub, ok := h.Subscribe("s", ViewAll, 0, time.Duration(i)*time.Millisecond)
		if !ok {
			t.Fatalf("Subscribe %d failed", i)
		}
		wg.Add(1)
		go func(i int, sub *Subscriber) {
			defer wg.Done()
			defer sub.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			for {
				ev, ok := sub.Next(ctx)
				if !ok {
					return
				}
				if ev.Heartbeat {
					continue
				}
				seqs[i] = append(seqs[i], ev.Version)
				if ev.Version == bumps {
					return
				}
			}
		}(i, sub)
	}
	for v := 0; v < bumps; v++ {
		sess.bump()
		if v%10 == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	wg.Wait()
	for i, seq := range seqs {
		if len(seq) == 0 {
			t.Fatalf("subscriber %d observed no versions", i)
		}
		for j := 1; j < len(seq); j++ {
			if seq[j] <= seq[j-1] {
				t.Fatalf("subscriber %d: non-monotonic versions %d -> %d at %d", i, seq[j-1], seq[j], j)
			}
		}
		if last := seq[len(seq)-1]; last != bumps {
			t.Fatalf("subscriber %d ended at version %d, want %d", i, last, bumps)
		}
	}
}

// TestSubscribeUnsubscribeChurn races attach/detach against concurrent
// ingest and a final Drop; run under -race this exercises the pump
// start/stop and close paths.
func TestSubscribeUnsubscribeChurn(t *testing.T) {
	h, sess, _ := testHub(t, Config{})
	stop := make(chan struct{})
	var ingest sync.WaitGroup
	ingest.Add(1)
	go func() {
		defer ingest.Done()
		for {
			select {
			case <-stop:
				return
			default:
				sess.bump()
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				sub, ok := h.Subscribe("s", ViewAll, 0, 0)
				if !ok {
					continue // raced with the final Drop
				}
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
				sub.Next(ctx)
				cancel()
				sub.Close()
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	h.Drop("s") // mid-churn drop: Subscribe must re-resolve or fail cleanly
	wg.Wait()
	close(stop)
	ingest.Wait()
}
