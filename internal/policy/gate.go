package policy

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"
)

// Source is the gate's view of a session. It is deliberately narrow — version
// counter, change notification, and a metrics snapshot — so this package
// never imports the engine and callers (the server, the engine's own
// benchmarks, the qualitygate example) adapt their session type in a few
// lines.
type Source interface {
	// Version returns the session's monotonically increasing mutation counter.
	Version() uint64
	// Notify registers ch for non-blocking wakeups on every mutation;
	// StopNotify unregisters it.
	Notify(ch chan<- struct{})
	StopNotify(ch chan<- struct{})
	// Inputs snapshots the gate metrics. need tells the source which
	// expensive quantities (bootstrap CI, windowed drift read) the policy
	// actually references, so it can skip the rest. Implementations must
	// read the version BEFORE the estimates so a concurrent mutation makes
	// the snapshot look stale (triggering re-evaluation) rather than fresh.
	Inputs(need Needs) (Inputs, error)
}

// Frame is one cached gate decision: the JSON-encoded Decision document
// exactly as the HTTP handler writes it, plus the version it was evaluated
// at (the ETag) and the decoded action (for transition detection and cheap
// introspection). Immutable after publication.
type Frame struct {
	Body    []byte
	Version uint64
	Action  Action
	// Decision is the decoded document backing Body, retained for callers
	// (tests, the qualitygate example) that want fields without re-parsing.
	Decision Decision
}

// GateConfig configures one session's gate.
type GateConfig struct {
	// SessionID is echoed in every decision document.
	SessionID string
	// MinInterval, when positive, rate-limits evaluation: after each
	// evaluation the pump sleeps at least this long before reacting to
	// further notifications. Bursty ingest then coalesces into one trailing
	// evaluation instead of one per batch.
	MinInterval time.Duration
	// OnTransition fires from the pump goroutine whenever the decision
	// action changes (including the transition out of the seed decision).
	// body is the pre-serialized decision document.
	OnTransition func(prev, cur Action, dec Decision, body []byte)
}

// Gate owns event-driven evaluation of one policy over one source. It holds
// a cap-1 notification channel registered with the source, a single pump
// goroutine that drains it, and an atomically published Frame the read path
// serves without locks. Idle sessions never wake the pump: cost is strictly
// per-mutation.
type Gate struct {
	src Source
	cfg GateConfig

	policy atomic.Pointer[Policy]
	frame  atomic.Pointer[Frame]

	// evalMu serializes evaluate() between the pump goroutine and
	// synchronous SetPolicy re-evaluation, keeping transition detection
	// (prev frame → next frame) race-free.
	evalMu sync.Mutex

	ch        chan struct{}
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// NewGate attaches a policy to a source: it runs one synchronous evaluation
// (so the frame is never nil and a PUT's response can report the decision),
// registers for change notifications, and starts the pump.
func NewGate(p *Policy, src Source, cfg GateConfig) *Gate {
	g := &Gate{
		src:  src,
		cfg:  cfg,
		ch:   make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	g.policy.Store(p)
	g.evaluate()
	src.Notify(g.ch)
	go g.pump()
	return g
}

// Frame returns the current cached decision. Never nil after NewGate.
func (g *Gate) Frame() *Frame {
	return g.frame.Load()
}

// Policy returns the currently attached policy.
func (g *Gate) Policy() *Policy {
	return g.policy.Load()
}

// SetPolicy swaps the policy and synchronously re-evaluates, so the caller
// observes a decision computed under the new rules.
func (g *Gate) SetPolicy(p *Policy) {
	g.policy.Store(p)
	g.evaluate()
}

// Stale reports whether the cached decision lags the source (evaluation
// pending or rate-limited). A quiesce check for tests and the qualitygate
// example, not a serving concern: the served frame is always internally
// consistent.
func (g *Gate) Stale() bool {
	f := g.frame.Load()
	return f == nil || f.Version != g.src.Version()
}

// Close unregisters the notifier and stops the pump, waiting for it to exit.
func (g *Gate) Close() {
	g.closeOnce.Do(func() {
		g.src.StopNotify(g.ch)
		close(g.stop)
		<-g.done
	})
}

func (g *Gate) pump() {
	defer close(g.done)
	var timer *time.Timer
	for {
		select {
		case <-g.stop:
			return
		case <-g.ch:
		}
		g.evaluate()
		if g.cfg.MinInterval > 0 {
			if timer == nil {
				timer = time.NewTimer(g.cfg.MinInterval)
			} else {
				timer.Reset(g.cfg.MinInterval)
			}
			select {
			case <-g.stop:
				timer.Stop()
				return
			case <-timer.C:
			}
		}
	}
}

// evaluate snapshots inputs, applies the policy, serializes the decision
// once, detects action transitions, and publishes the new frame.
func (g *Gate) evaluate() {
	g.evalMu.Lock()
	defer g.evalMu.Unlock()

	p := g.policy.Load()
	if p == nil {
		return
	}
	in, err := g.src.Inputs(p.Needs())
	if err != nil {
		// Inputs can fail transiently (e.g. windowed read before the first
		// window closes). Keep the previous frame; the next mutation will
		// re-trigger. If there is no previous frame yet, publish an unarmed
		// proceed so readers never see a nil gate.
		if g.frame.Load() != nil {
			return
		}
		in = Inputs{Version: g.src.Version()}
	}
	dec := p.Evaluate(in)
	dec.Session = g.cfg.SessionID
	dec.EvaluatedAt = time.Now().UTC()
	body, merr := json.Marshal(dec)
	if merr != nil {
		return
	}
	action, _ := ParseAction(dec.Action)
	next := &Frame{Body: body, Version: dec.Version, Action: action, Decision: dec}

	prev := g.frame.Load()
	g.frame.Store(next)

	metricGateEvaluations.Inc()
	switch action {
	case ActionQuarantine:
		metricGateDecisionsQuarantine.Inc()
	case ActionWarn:
		metricGateDecisionsWarn.Inc()
	default:
		metricGateDecisionsProceed.Inc()
	}
	if prev != nil && prev.Action != action {
		metricGateTransitions.Inc()
		if g.cfg.OnTransition != nil {
			g.cfg.OnTransition(prev.Action, action, dec, body)
		}
	}
}
