package policy

import (
	"encoding/json"
	"sync"
	"sync/atomic"
	"time"
)

// Source is the gate's view of a session: its version counter and a metrics
// snapshot. It is deliberately narrow so this package never imports the
// engine; callers adapt their session type in a few lines.
type Source interface {
	// Version returns the session's monotonically increasing mutation counter.
	Version() uint64
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

// Gate evaluates one policy over one source and caches the decision as an
// atomically published Frame the read path serves without locks. It is
// passive — no goroutine, no notifier: whoever watches the source (the hub's
// pump) calls Evaluate when it moves and reports the transitions.
type Gate struct {
	src     Source
	session string

	policy atomic.Pointer[Policy]
	frame  atomic.Pointer[Frame]

	// evalMu serializes evaluations (the driver's and SetPolicy's), keeping
	// transition detection (prev frame → next frame) race-free.
	evalMu sync.Mutex
}

// NewGate attaches a policy to the named session's source and evaluates it
// once, synchronously, so the frame is never nil.
func NewGate(session string, p *Policy, src Source) *Gate {
	g := &Gate{src: src, session: session}
	g.policy.Store(p)
	g.Evaluate()
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

// SetPolicy swaps the policy and re-evaluates synchronously, returning what
// Evaluate returns, so the caller observes the decision under the new rules.
func (g *Gate) SetPolicy(p *Policy) (f *Frame, from Action, changed bool) {
	g.policy.Store(p)
	return g.Evaluate()
}

// Stale reports whether the cached decision lags the source (evaluation
// pending or rate-limited): the pump evaluates only stale gates, and tests
// use it as a quiesce check. The served frame is always self-consistent.
func (g *Gate) Stale() bool {
	f := g.frame.Load()
	return f == nil || f.Version != g.src.Version()
}

// Evaluate snapshots inputs, applies the policy, serializes the decision
// once and publishes the frame. It returns the cached frame and, when the
// action changed, the action it changed from (the edge webhooks fire on).
// An inputs or encode failure keeps the previous frame, unchanged.
func (g *Gate) Evaluate() (f *Frame, from Action, changed bool) {
	g.evalMu.Lock()
	defer g.evalMu.Unlock()

	prev := g.frame.Load()
	p := g.policy.Load()
	if p == nil {
		return prev, 0, false
	}
	in, err := g.src.Inputs(p.Needs())
	if err != nil {
		// Inputs can fail transiently (e.g. windowed read before the first
		// window closes). Keep the previous frame; the next mutation will
		// re-trigger. If there is no previous frame yet, publish an unarmed
		// proceed so readers never see a nil gate.
		if prev != nil {
			return prev, 0, false
		}
		in = Inputs{Version: g.src.Version()}
	}
	dec := p.Evaluate(in)
	dec.Session = g.session
	dec.EvaluatedAt = time.Now().UTC()
	body, merr := json.Marshal(dec)
	if merr != nil {
		return prev, 0, false
	}
	action, _ := ParseAction(dec.Action)
	f = &Frame{Body: body, Version: dec.Version, Action: action, Decision: dec}
	g.frame.Store(f)

	metricGateEvaluations.Inc()
	switch action {
	case ActionQuarantine:
		metricGateDecisionsQuarantine.Inc()
	case ActionWarn:
		metricGateDecisionsWarn.Inc()
	default:
		metricGateDecisionsProceed.Inc()
	}
	if prev == nil || prev.Action == action {
		return f, 0, false
	}
	metricGateTransitions.Inc()
	return f, prev.Action, true
}
