// Package hub is the broadcast plane of the watch API: a per-session fan-out
// hub that turns the engine's version-advance notifications into
// pre-serialized SSE frames, encoded ONCE per published version per view and
// multicast to any number of subscribers.
//
// The shape exists because the per-subscriber alternative is O(N) everything:
// N poll tickers, N identical json.Marshals, N timer wheels churning on idle
// sessions. Here one pump goroutine per watched session waits on the
// session's notifier channel (event-driven — an idle session costs zero CPU
// no matter how many subscribers it has), stamps a publish sequence, and
// wakes subscribers with non-blocking capacity-1 signals. The frame itself is
// encoded lazily by the first consumer that needs it and cached by version,
// so the marshal cost per version is exactly one regardless of subscriber
// count — and the same cache doubles as the conditional-read plane for
// ETag/If-None-Match estimate GETs (Payload).
//
// Subscribers are coalesce-to-latest: each holds a capacity-1 wake signal,
// not a frame queue, and reads the newest cached frame when it decides to
// deliver (after its min-interval). A slow subscriber therefore skips
// intermediate versions — counted in dqm_hub_dropped_total — and can never
// block the pump, the encoder, or other subscribers. Every subscriber
// observes a strictly increasing version subsequence that ends at the
// session's latest version once mutations stop (the pump's final wake after
// the last bump guarantees convergence).
//
// Lifecycle: a hub session is bound to one engine-session incarnation. When
// the underlying session is deleted or LRU-evicted the owner calls Drop,
// which terminates all subscriber streams (Next returns false) instead of
// leaving them silently pinned to a detached object; a revived incarnation
// gets a fresh hub session on the next Subscribe or Payload.
package hub

import (
	"sync"
	"sync/atomic"
	"time"
)

// View selects which estimate variant a subscriber or conditional read wants.
// Each view has its own single-encode frame cache slot.
type View uint8

const (
	// ViewAll is the all-time estimate payload.
	ViewAll View = iota
	// ViewCurrent, ViewLast and ViewDecayed are the windowed variants.
	ViewCurrent
	ViewLast
	ViewDecayed
	// NumViews sizes per-view arrays.
	NumViews
)

// Session is the surface the hub needs from an engine session, implemented
// by *dqm.Session (or fakes in tests).
type Session interface {
	// Version is the session's monotonic mutation counter.
	Version() uint64
	// Notify/StopNotify register a version-advance signal channel
	// (non-blocking sends; capacity 1 suffices).
	Notify(ch chan<- struct{})
	StopNotify(ch chan<- struct{})
}

// Config parameterizes a Hub.
type Config struct {
	// Resolve looks a live session up by id (false = unknown/deleted).
	Resolve func(id string) (Session, bool)
	// Encode renders one view's payload body at the current version,
	// returning the version the payload is valid for (read BEFORE the
	// payload, so watchers resuming from it re-deliver rather than skip —
	// at-least-once). An error frame still advances subscriber cursors: the
	// error is cached and re-served until the version moves (a windowed view
	// with no completed window yet is the expected case).
	Encode func(s Session, view View) (body []byte, version uint64, err error)
	// Event is the SSE event name frames carry; default "estimates".
	Event string
	// MinInterval is the pump's floor between publish fan-outs per session:
	// bursts of mutations inside one interval coalesce into one wake.
	// Subscribers add their own (longer) per-subscriber interval on top.
	// 0 publishes every notification immediately.
	MinInterval time.Duration
	// Heartbeat is the idle keep-alive period per subscriber; default 15s.
	Heartbeat time.Duration
}

// Hub fans session updates out to subscribers, one sessionHub per watched
// (or conditionally-read) session id.
type Hub struct {
	cfg Config
	// sessions is id -> *sessionHub. A sync.Map so Payload — which rides the
	// GET /estimates hot path — costs one lock-free load; addMu serializes
	// only creation/replacement.
	sessions sync.Map
	addMu    sync.Mutex
}

// New creates a Hub. Resolve and Encode are required.
func New(cfg Config) *Hub {
	if cfg.Resolve == nil || cfg.Encode == nil {
		panic("hub: Config.Resolve and Config.Encode are required")
	}
	if cfg.Event == "" {
		cfg.Event = "estimates"
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 15 * time.Second
	}
	return &Hub{cfg: cfg}
}

// frame is one encoded (version, view) payload, immutable once stored.
type frame struct {
	version uint64
	// seq is the pump publish sequence at encode time; subscribers diff it
	// to count coalesced skips.
	seq uint64
	// pubNano is when the pump published the wake this frame answers,
	// for the fanout-latency histogram.
	pubNano int64
	body    []byte // payload only (conditional reads)
	sse     []byte // full SSE frame: "id: V\nevent: E\ndata: <body>\n\n"
	err     error  // encode failure; body/sse nil, cursor still advances
}

// sessionHub is the per-session broadcast state.
type sessionHub struct {
	h    *Hub
	id   string
	sess Session

	// notify receives the engine's version-advance signals (capacity 1).
	notify chan struct{}

	pubSeq   atomic.Uint64
	wakeNano atomic.Int64

	frames [NumViews]atomic.Pointer[frame]
	encMu  [NumViews]sync.Mutex

	mu       sync.Mutex
	subs     map[*Subscriber]struct{}
	pumpStop chan struct{}
	closed   bool
}

// entry returns the live sessionHub for id, creating one (and registering
// its notifier) on first use. ok=false means the session does not exist.
func (h *Hub) entry(id string) (*sessionHub, bool) {
	if v, ok := h.sessions.Load(id); ok {
		if sh := v.(*sessionHub); !sh.isClosed() {
			return sh, true
		}
	}
	h.addMu.Lock()
	defer h.addMu.Unlock()
	if v, ok := h.sessions.Load(id); ok {
		if sh := v.(*sessionHub); !sh.isClosed() {
			return sh, true
		}
	}
	sess, ok := h.cfg.Resolve(id)
	if !ok {
		return nil, false
	}
	sh := &sessionHub{
		h:      h,
		id:     id,
		sess:   sess,
		notify: make(chan struct{}, 1),
		subs:   make(map[*Subscriber]struct{}),
	}
	sess.Notify(sh.notify)
	h.sessions.Store(id, sh)
	return sh, true
}

func (sh *sessionHub) isClosed() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.closed
}

// Drop terminates the session's hub state: every subscriber's Next returns
// false, the pump stops, the notifier is unregistered, and the frame cache
// is released. Owners call it when the underlying session is deleted or
// evicted; a later Subscribe/Payload re-resolves a fresh incarnation.
func (h *Hub) Drop(id string) {
	v, ok := h.sessions.LoadAndDelete(id)
	if !ok {
		return
	}
	v.(*sessionHub).close()
}

func (sh *sessionHub) close() {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return
	}
	sh.closed = true
	if sh.pumpStop != nil {
		close(sh.pumpStop)
		sh.pumpStop = nil
	}
	for sub := range sh.subs {
		close(sub.done)
	}
	sh.subs = nil
	sh.mu.Unlock()
	sh.sess.StopNotify(sh.notify)
}

// frame returns the cached frame for view, encoding at most once per
// version: concurrent consumers double-check under the per-view mutex, so N
// subscribers waking for the same version cost exactly one Encode.
func (sh *sessionHub) frame(view View) *frame {
	v := sh.sess.Version()
	if f := sh.frames[view].Load(); f != nil && f.version >= v {
		return f
	}
	sh.encMu[view].Lock()
	defer sh.encMu[view].Unlock()
	v = sh.sess.Version()
	if f := sh.frames[view].Load(); f != nil && f.version >= v {
		return f
	}
	body, ver, err := sh.h.cfg.Encode(sh.sess, view)
	metricEncodes.Inc()
	f := &frame{
		version: ver,
		seq:     sh.pubSeq.Load(),
		pubNano: sh.wakeNano.Load(),
		err:     err,
	}
	if err == nil {
		f.body = body
		f.sse = appendSSE(nil, sh.h.cfg.Event, ver, body)
	}
	sh.frames[view].Store(f)
	return f
}

// appendSSE renders one SSE frame around an encoded body.
func appendSSE(dst []byte, event string, version uint64, body []byte) []byte {
	dst = append(dst, "id: "...)
	dst = appendUint(dst, version)
	dst = append(dst, "\nevent: "...)
	dst = append(dst, event...)
	dst = append(dst, "\ndata: "...)
	dst = append(dst, body...)
	dst = append(dst, "\n\n"...)
	return dst
}

func appendUint(dst []byte, v uint64) []byte {
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return append(dst, buf[i:]...)
}

// pump is the per-session publisher: one goroutine, alive while the session
// has subscribers. Each drained notification becomes one publish — a
// sequence stamp plus a non-blocking wake to every subscriber — followed by
// the MinInterval coalescing sleep, during which further notifications pile
// up in the capacity-1 channel and merge into the next publish.
func (sh *sessionHub) pump(stop chan struct{}) {
	var t *time.Timer
	defer func() {
		if t != nil {
			t.Stop()
		}
	}()
	for {
		select {
		case <-stop:
			return
		case <-sh.notify:
		}
		metricPublishes.Inc()
		sh.wakeNano.Store(time.Now().UnixNano())
		sh.pubSeq.Add(1)
		sh.mu.Lock()
		for sub := range sh.subs {
			select {
			case sub.wake <- struct{}{}:
			default:
			}
		}
		sh.mu.Unlock()
		if iv := sh.h.cfg.MinInterval; iv > 0 {
			if t == nil {
				t = time.NewTimer(iv)
			} else {
				t.Reset(iv)
			}
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}
}

func (sh *sessionHub) addSub(sub *Subscriber) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return false
	}
	sh.subs[sub] = struct{}{}
	if sh.pumpStop == nil {
		sh.pumpStop = make(chan struct{})
		go sh.pump(sh.pumpStop)
	}
	return true
}

func (sh *sessionHub) removeSub(sub *Subscriber) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return
	}
	delete(sh.subs, sub)
	if len(sh.subs) == 0 && sh.pumpStop != nil {
		close(sh.pumpStop)
		sh.pumpStop = nil
	}
}

// Subscribe attaches a subscriber to the session's broadcast. cursor is the
// last version the client has seen (0 = none; the newest frame is delivered
// immediately when the version differs — Last-Event-ID resume). minInterval
// is the per-subscriber coalescing floor between deliveries. ok=false means
// the session does not exist.
func (h *Hub) Subscribe(id string, view View, cursor uint64, minInterval time.Duration) (*Subscriber, bool) {
	// Bounded retry: entry() can hand back a sessionHub that a concurrent
	// Drop closes before addSub runs; the next attempt re-resolves.
	for attempt := 0; attempt < 4; attempt++ {
		sh, ok := h.entry(id)
		if !ok {
			return nil, false
		}
		sub := &Subscriber{
			sh:       sh,
			view:     view,
			interval: minInterval,
			cursor:   cursor,
			wake:     make(chan struct{}, 1),
			done:     make(chan struct{}),
			lastBeat: time.Now(),
		}
		if sh.addSub(sub) {
			metricSubscribers.Inc()
			return sub, true
		}
	}
	return nil, false
}

// Payload returns the latest encoded payload body and its version for
// (id, view), riding the same encode-once cache as the broadcast — this is
// the conditional-read plane behind ETag/If-None-Match. ok=false means the
// session does not exist; err is the cached encode error (e.g. a windowed
// view with no completed window).
func (h *Hub) Payload(id string, view View) (body []byte, version uint64, err error, ok bool) {
	sh, ok := h.entry(id)
	if !ok {
		return nil, 0, nil, false
	}
	f := sh.frame(view)
	return f.body, f.version, f.err, true
}

// Event is one delivery from Subscriber.Next.
type Event struct {
	// SSE is the wire-ready chunk: a full estimates frame, or the keep-alive
	// comment for heartbeats.
	SSE []byte
	// Version is the payload's session version (0 for heartbeats).
	Version uint64
	// Skipped counts publishes coalesced away since this subscriber's
	// previous delivery (0 when it kept up).
	Skipped uint64
	// Heartbeat marks an idle keep-alive.
	Heartbeat bool
}

var heartbeatSSE = []byte(": keep-alive\n\n")

// Subscriber is one attached consumer. Not safe for concurrent use: one
// goroutine calls Next in a loop and Close when done.
type Subscriber struct {
	sh       *sessionHub
	view     View
	interval time.Duration

	cursor    uint64
	lastSeq   uint64
	delivered uint64
	skipped   uint64
	lastPush  time.Time
	lastBeat  time.Time

	wake  chan struct{}
	done  chan struct{}
	timer *time.Timer
	once  sync.Once
}

// Close detaches the subscriber. Idempotent; safe after Drop.
func (sub *Subscriber) Close() {
	sub.once.Do(func() {
		sub.sh.removeSub(sub)
		metricSubscribers.Dec()
	})
}

// Stats returns the subscriber's delivered-frame and coalesced-skip counts.
func (sub *Subscriber) Stats() (delivered, skipped uint64) {
	return sub.delivered, sub.skipped
}

// timerC arms the subscriber's reusable timer for d and returns its channel.
func (sub *Subscriber) timerC(d time.Duration) <-chan time.Time {
	if sub.timer == nil {
		sub.timer = time.NewTimer(d)
		return sub.timer.C
	}
	if !sub.timer.Stop() {
		select {
		case <-sub.timer.C:
		default:
		}
	}
	sub.timer.Reset(d)
	return sub.timer.C
}

// Next blocks until there is something to deliver: the newest estimates
// frame once the session's version moves past the cursor (respecting the
// subscriber's min-interval — bursts coalesce to the latest version), or a
// heartbeat after the idle period. ok=false ends the stream: the context is
// done, or the hub dropped the session (delete/evict).
func (sub *Subscriber) Next(ctx interface{ Done() <-chan struct{} }) (Event, bool) {
	for {
		if sub.sh.sess.Version() != sub.cursor {
			if wait := sub.interval - time.Since(sub.lastPush); wait > 0 {
				// Inside the coalescing interval: sleep the remainder, then
				// re-read the latest state (that is what coalesce-to-latest
				// means — the version checked after the sleep, not the one
				// that woke us).
				select {
				case <-ctx.Done():
					return Event{}, false
				case <-sub.done:
					return Event{}, false
				case <-sub.timerC(wait):
				}
				continue
			}
			f := sub.sh.frame(sub.view)
			now := time.Now()
			sub.lastPush, sub.lastBeat = now, now
			prevSeq := sub.lastSeq
			sub.lastSeq = f.seq
			sub.cursor = f.version
			if f.err != nil {
				// Encode failure (windowed view not ready, marshal error —
				// already counted by the encoder): advance silently so the
				// payload is not re-encoded every wake forever.
				continue
			}
			var skipped uint64
			if prevSeq != 0 && f.seq > prevSeq+1 {
				skipped = f.seq - prevSeq - 1
			}
			metricEvents.Inc()
			if skipped > 0 {
				metricDropped.Add(skipped)
			}
			metricQueueDepth.Observe(float64(skipped))
			if sub.delivered > 0 && f.pubNano > 0 {
				metricFanout.Observe(float64(now.UnixNano()-f.pubNano) / 1e9)
			}
			sub.delivered++
			sub.skipped += skipped
			return Event{SSE: f.sse, Version: f.version, Skipped: skipped}, true
		}
		if rem := sub.sh.h.cfg.Heartbeat - time.Since(sub.lastBeat); rem <= 0 {
			sub.lastBeat = time.Now()
			return Event{SSE: heartbeatSSE, Heartbeat: true}, true
		} else {
			select {
			case <-ctx.Done():
				return Event{}, false
			case <-sub.done:
				return Event{}, false
			case <-sub.wake:
			case <-sub.timerC(rem):
			}
		}
	}
}
