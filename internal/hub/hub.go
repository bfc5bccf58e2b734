// Package hub is dqm-serve's one publisher per session. A session's entry
// owns its one version-notifier registration and one pump goroutine, alive
// while the session has a subscriber or a gate, and event-driven: an idle
// session costs zero CPU. The pump wakes subscribers at most once per
// MinInterval and re-evaluates an attached policy.Gate at most once per
// GateMinInterval, each with a trailing run, reporting gate action changes
// to OnTransition.
//
// Estimate frames are encoded lazily by the first consumer that needs one
// and cached by version: one marshal per version per view whatever the
// subscriber count, and the same cache serves ETag/If-None-Match GETs
// (Payload). Subscribers are coalesce-to-latest: each holds a capacity-1
// wake signal, not a frame queue, so a slow one skips versions (counted in
// dqm_hub_dropped_total) and never blocks the pump or other subscribers.
// Each observes a strictly increasing version subsequence that ends at the
// session's latest version once mutations stop.
//
// An entry is bound to one engine-session incarnation: when the session is
// deleted or LRU-evicted the owner calls Drop, which ends every subscriber
// stream, detaches the gate and retires the pump; a revived incarnation
// gets a fresh entry on its next use.
package hub

import (
	"sync"
	"sync/atomic"
	"time"

	"dqm/internal/policy"
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

// Session is the surface the hub needs from an engine session: the version
// counter and notifier the pump rides, plus the gate's inputs. dqm-serve
// adapts *dqm.Session to it; tests use fakes.
type Session interface {
	policy.Source
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
	// MinInterval is the pump's floor between publish fan-outs per session:
	// bursts of mutations inside one interval coalesce into one wake.
	// Subscribers add their own (longer) per-subscriber interval on top.
	// 0 publishes every notification immediately.
	MinInterval time.Duration
	// Heartbeat is the idle keep-alive period per subscriber; default 15s.
	Heartbeat time.Duration
	// GateMinInterval is the pump's floor between evaluations of a gate:
	// bursty ingest coalesces into one trailing evaluation per interval.
	GateMinInterval time.Duration
	// OnTransition, when set, hears each change of a gate's action: the
	// frame that changed it and the action it changed from. It runs on the
	// pump (or SetPolicy's caller), so it must not block.
	OnTransition func(g *policy.Gate, from policy.Action, f *policy.Frame)
}

// Hub fans session updates out to subscribers and drives gates.
type Hub struct {
	cfg Config
	// sessions is id -> *sessionHub. A sync.Map so Payload — which rides the
	// GET /estimates hot path — and Gate cost one lock-free load.
	sessions sync.Map
	// addMu orders entry creation against Drop and Close; drops counts
	// Drops, so a Resolve that raced one is redone rather than stored.
	addMu  sync.Mutex
	drops  uint64
	closed bool
	pumps  sync.WaitGroup
}

// New creates a Hub. Resolve and Encode are required.
func New(cfg Config) *Hub {
	if cfg.Resolve == nil || cfg.Encode == nil {
		panic("hub: Config.Resolve and Config.Encode are required")
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 15 * time.Second
	}
	if cfg.OnTransition == nil {
		cfg.OnTransition = func(*policy.Gate, policy.Action, *policy.Frame) {}
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

// sessionHub is the per-session publisher state.
type sessionHub struct {
	h    *Hub
	sess Session
	// kick makes a running pump re-read its consumers.
	kick chan struct{}

	pubSeq   atomic.Uint64
	wakeNano atomic.Int64

	frames [NumViews]atomic.Pointer[frame]
	encMu  [NumViews]sync.Mutex

	// closed and gate are written under mu and read lock-free.
	closed atomic.Bool
	gate   atomic.Pointer[policy.Gate]

	mu      sync.Mutex
	subs    map[*Subscriber]struct{}
	pumping bool
}

// live returns id's open sessionHub, or nil. Lock-free.
func (h *Hub) live(id string) *sessionHub {
	if v, ok := h.sessions.Load(id); ok {
		if sh := v.(*sessionHub); !sh.closed.Load() {
			return sh
		}
	}
	return nil
}

// entry returns the live sessionHub for id, creating one on first use.
// ok=false means the session does not exist (or the hub is closed).
func (h *Hub) entry(id string) (*sessionHub, bool) {
	for {
		if sh := h.live(id); sh != nil {
			return sh, true
		}
		h.addMu.Lock()
		closed, drops := h.closed, h.drops
		h.addMu.Unlock()
		if closed {
			return nil, false
		}
		// Resolve runs unlocked: reviving an evicted session can evict
		// another, whose eviction callback calls Drop.
		sess, ok := h.cfg.Resolve(id)
		if !ok {
			return nil, false
		}
		h.addMu.Lock()
		if h.drops == drops && !h.closed && h.live(id) == nil {
			h.sessions.Store(id, &sessionHub{
				h: h, sess: sess,
				kick: make(chan struct{}, 1),
				subs: make(map[*Subscriber]struct{}),
			})
		}
		h.addMu.Unlock()
	}
}

// Drop ends the session's hub state — subscriber streams, gate, pump (not
// waited for) and frame cache — when the session is deleted or evicted; the
// next use resolves a fresh incarnation.
func (h *Hub) Drop(id string) {
	h.addMu.Lock()
	h.drops++
	v, ok := h.sessions.LoadAndDelete(id)
	h.addMu.Unlock()
	if ok {
		v.(*sessionHub).close()
	}
}

// Close drops every session and waits for every pump to exit, so no pump
// calls OnTransition after it returns. Later lookups find no session.
func (h *Hub) Close() {
	h.addMu.Lock()
	h.closed = true
	h.addMu.Unlock()
	h.sessions.Range(func(id, _ any) bool {
		h.Drop(id.(string))
		return true
	})
	h.pumps.Wait()
}

// close runs once per entry, from the Drop that removed it from the map.
func (sh *sessionHub) close() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.closed.Store(true)
	for sub := range sh.subs {
		close(sub.done)
	}
	sh.subs = nil
	sh.gate.Store(nil)
	sh.changedLocked()
}

// changedLocked follows a change of the session's consumers: it starts the
// pump when there is something to serve and none runs, and otherwise makes
// a running pump re-read its consumers. Caller holds mu.
func (sh *sessionHub) changedLocked() {
	if sh.pumping {
		select {
		case sh.kick <- struct{}{}:
		default:
		}
	} else if len(sh.subs) > 0 || sh.gate.Load() != nil {
		sh.pumping = true
		sh.h.pumps.Add(1)
		go sh.pump()
	}
}

// pump serves the session's consumers — a publish to the subscribers, an
// evaluation of the gate — each when the version moved since it was last
// served and its floor has passed. While every consumer is inside its floor
// the pump leaves the notifier unread, so a burst costs one wake per floor,
// not one per mutation. Each pump registers its own channel for exactly its
// lifetime, so a retiring pump never unregisters its successor's.
func (sh *sessionHub) pump() {
	defer sh.h.pumps.Done()
	notify := make(chan struct{}, 1)
	sh.sess.Notify(notify)
	var (
		pubSeen, evalSeen uint64
		pubNext, evalNext time.Time
		evalGate          *policy.Gate
		timer             *time.Timer
	)
	defer func() {
		sh.sess.StopNotify(notify)
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		// Versions decide below; a signal they cover must not wake the wait.
		select {
		case <-notify:
		default:
		}
		sh.mu.Lock()
		watched, g := len(sh.subs) > 0, sh.gate.Load()
		sh.pumping = watched || g != nil
		sh.mu.Unlock()
		if !watched && g == nil {
			return
		}
		v, now := sh.sess.Version(), time.Now()
		if watched && v != pubSeen && !now.Before(pubNext) {
			sh.publish()
			pubSeen, pubNext = v, time.Now().Add(sh.h.cfg.MinInterval)
		}
		if g != evalGate {
			evalGate, evalSeen = g, 0
		}
		// evalSeen holds a gate whose inputs failed at v until v moves.
		if g != nil && v != evalSeen && g.Stale() && !now.Before(evalNext) {
			if f, from, changed := g.Evaluate(); changed {
				sh.h.cfg.OnTransition(g, from, f)
			}
			evalSeen, evalNext = v, time.Now().Add(sh.h.cfg.GateMinInterval)
		}

		// A consumer inside its floor needs the timer (a trailing run or a
		// re-check at the floor's end); one past it needs the notifier.
		now = time.Now()
		var (
			signal <-chan struct{}
			expire <-chan time.Time
			wait   time.Duration
		)
		hold := func(on bool, next time.Time) {
			if d := next.Sub(now); on && d <= 0 {
				signal = notify
			} else if on && (wait == 0 || d < wait) {
				wait = d
			}
		}
		hold(watched, pubNext)
		hold(g != nil, evalNext)
		if wait > 0 {
			expire = resetTimer(&timer, wait)
		}
		select {
		case <-signal:
		case <-expire:
		case <-sh.kick:
		}
	}
}

// publish stamps a publish sequence and wakes every subscriber without
// blocking; it is a no-op (and not counted) when none is attached.
func (sh *sessionHub) publish() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.subs) == 0 {
		return
	}
	metricPublishes.Inc()
	sh.wakeNano.Store(time.Now().UnixNano())
	sh.pubSeq.Add(1)
	for sub := range sh.subs {
		select {
		case sub.wake <- struct{}{}:
		default:
		}
	}
}

// resetTimer arms *t for d, reusing it, and returns its channel.
func resetTimer(t **time.Timer, d time.Duration) <-chan time.Time {
	if *t == nil {
		*t = time.NewTimer(d)
		return (*t).C
	}
	if !(*t).Stop() {
		select {
		case <-(*t).C:
		default:
		}
	}
	(*t).Reset(d)
	return (*t).C
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
		f.sse = appendSSE(nil, ver, body)
	}
	sh.frames[view].Store(f)
	return f
}

// appendSSE renders one "estimates" SSE frame around an encoded body.
func appendSSE(dst []byte, version uint64, body []byte) []byte {
	dst = append(dst, "id: "...)
	dst = appendUint(dst, version)
	dst = append(dst, "\nevent: estimates\ndata: "...)
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

func (sh *sessionHub) addSub(sub *Subscriber) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed.Load() {
		return false
	}
	sh.subs[sub] = struct{}{}
	if len(sh.subs) == 1 {
		sh.changedLocked()
	}
	return true
}

func (sh *sessionHub) removeSub(sub *Subscriber) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.subs[sub]; !ok {
		return // dropped already
	}
	delete(sh.subs, sub)
	if len(sh.subs) == 0 {
		sh.changedLocked()
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

// Gate returns the gate attached to id's session, or nil. Lock-free.
func (h *Hub) Gate(id string) *policy.Gate {
	if sh := h.live(id); sh != nil {
		return sh.gate.Load()
	}
	return nil
}

// AttachGate gives id's session a gate over p, seeded synchronously, unless
// it has one, and returns the session's gate. ok=false means the session
// does not exist.
func (h *Hub) AttachGate(id string, p *policy.Policy) (*policy.Gate, bool) {
	return h.setGate(id, p, false)
}

// SetPolicy is AttachGate, except that a gate the session has already takes
// p and re-evaluates synchronously, reporting a changed action to
// OnTransition before SetPolicy returns.
func (h *Hub) SetPolicy(id string, p *policy.Policy) (*policy.Gate, bool) {
	return h.setGate(id, p, true)
}

func (h *Hub) setGate(id string, p *policy.Policy, replace bool) (*policy.Gate, bool) {
	sh, ok := h.entry(id)
	if !ok {
		return nil, false
	}
	g := sh.gate.Load()
	if g == nil {
		// Seeded unlocked: a concurrent attach may win, or a Drop orphan it.
		seeded := policy.NewGate(id, p, sh.sess)
		sh.mu.Lock()
		if g = sh.gate.Load(); g == nil && !sh.closed.Load() {
			sh.gate.Store(seeded)
			sh.changedLocked()
		}
		sh.mu.Unlock()
		if g == nil {
			return seeded, true
		}
	}
	if replace {
		if f, from, changed := g.SetPolicy(p); changed {
			h.cfg.OnTransition(g, from, f)
		}
	}
	return g, true
}

// DetachGate removes id's gate; an unwatched session's pump retires with it.
func (h *Hub) DetachGate(id string) {
	if sh := h.live(id); sh != nil {
		sh.mu.Lock()
		sh.gate.Store(nil)
		sh.changedLocked()
		sh.mu.Unlock()
	}
}

// Event is one delivery from Subscriber.Next.
type Event struct {
	// SSE is the wire-ready chunk: a full estimates frame, or the keep-alive
	// comment for heartbeats.
	SSE []byte
	// Version is the payload's session version (0 for heartbeats).
	Version uint64
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
				case <-resetTimer(&sub.timer, wait):
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
			return Event{SSE: f.sse, Version: f.version}, true
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
			case <-resetTimer(&sub.timer, rem):
			}
		}
	}
}
