// Package policy implements the declarative quality-gate layer behind
// dqm-serve's /v1/sessions/{id}/policy and /gate endpoints: named rules over
// the quantities the read plane already computes (estimated remaining errors,
// the SWITCH total, the bootstrap-CI upper bound, and the windowed drift
// ratio), each with a severity, folded into one proceed|warn|quarantine
// decision per session version.
//
// This is the paper's point made operational: the DQM estimate exists to
// drive the decision to stop or keep cleaning, so the gate turns "remaining
// errors ≈ 12" into "quarantine this dataset" — a machine-readable verdict CI
// pipelines poll cheaply (pre-serialized, ETag'd) and alerting hooks react to
// (webhooks fire on decision transitions, not on every evaluation).
//
// A Gate is a passive evaluator; internal/hub's one pump per session
// re-evaluates it when the session mutates, so idle sessions cost zero CPU
// regardless of how many policies are attached, and ingest stays
// allocation-free (the notifier send is the engine's non-blocking wakeup).
package policy

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"dqm/internal/estimator"
)

// Action is the gate outcome, ordered by severity.
type Action int

const (
	// ActionProceed: no rule violated — cleaning can stop or the dataset can
	// ship, as far as this policy is concerned.
	ActionProceed Action = iota
	// ActionWarn: at least one warning-severity rule violated, none critical.
	ActionWarn
	// ActionQuarantine: at least one critical rule violated — the dataset
	// should not ship.
	ActionQuarantine
)

// String returns the wire spelling ("proceed", "warn", "quarantine").
func (a Action) String() string {
	switch a {
	case ActionWarn:
		return "warn"
	case ActionQuarantine:
		return "quarantine"
	default:
		return "proceed"
	}
}

// Rule metrics: the quantities a rule can threshold on.
const (
	// MetricRemaining is the SWITCH remaining-error estimate
	// (Switch.Total − Voting, floored at zero).
	MetricRemaining = "remaining"
	// MetricSwitchTotal is the SWITCH total error estimate.
	MetricSwitchTotal = "switch_total"
	// MetricCIUpper is the upper bound of the bootstrap confidence interval
	// for the SWITCH total (requires track_confidence on the session).
	MetricCIUpper = "ci_upper"
	// MetricDriftRatio is the windowed drift ratio: the decayed-window
	// remaining estimate divided by the all-time remaining estimate
	// (requires a window config with decay_alpha > 0). Values above 1 mean
	// recent tasks look dirtier than the stream's history.
	MetricDriftRatio = "drift_ratio"
)

// Rule severities.
const (
	SeverityWarning  = "warning"
	SeverityCritical = "critical"
)

// Rule is one named threshold over a gate metric. A rule is violated when
// `metric op value` holds (e.g. remaining > 25).
type Rule struct {
	Name     string  `json:"name"`
	Metric   string  `json:"metric"`
	Op       string  `json:"op"` // ">", ">=", "<", "<="
	Value    float64 `json:"value"`
	Severity string  `json:"severity,omitempty"` // "warning" | "critical"; default critical
}

// CIParams tunes the bootstrap interval ci_upper rules evaluate.
type CIParams struct {
	Level      float64 `json:"level,omitempty"`      // default 0.95
	Replicates int     `json:"replicates,omitempty"` // default 200
}

// Webhook configures transition alerting: whenever the gate's action changes
// (proceed→quarantine and back), the decision document is POSTed to URL
// through the bounded async dispatcher.
type Webhook struct {
	URL string `json:"url"`
	// TimeoutMS bounds one delivery attempt; 0 selects the dispatcher default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// MaxAttempts bounds delivery attempts (1 = no retries); 0 selects the
	// dispatcher default.
	MaxAttempts int `json:"max_attempts,omitempty"`
}

// Bounds on the knobs of a policy document. Every rule is evaluated on each
// re-evaluation, each ci.replicates replicate costs O(N) compute, and a
// webhook attempt holds a dispatcher worker for up to timeout_ms, so Validate
// refuses a policy past any of them. ci.replicates is bounded by
// estimator.MinReplicates and estimator.MaxReplicates, the bounds a served
// ?replicates= request meets.
const (
	MaxRules            = 64
	MaxWebhookTimeoutMS = 60000
	MaxWebhookAttempts  = 10
)

// Policy is one session's declarative gate: rules, optional evaluation
// parameters, and optional transition webhook. The JSON form is the wire
// format of PUT/GET /v1/sessions/{id}/policy and of the -policy-file server
// default.
type Policy struct {
	Rules []Rule `json:"rules"`
	// MinTasks arms the gate only after this many completed tasks; before
	// that every evaluation proceeds (estimates over a handful of tasks are
	// noise, and a quarantine webhook on task 2 is a page nobody wants).
	MinTasks int64     `json:"min_tasks,omitempty"`
	CI       *CIParams `json:"ci,omitempty"`
	Webhook  *Webhook  `json:"webhook,omitempty"`
}

// Parse strictly decodes and validates a policy document.
func Parse(raw []byte) (*Policy, error) {
	var p Policy
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("policy: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Validate reports whether the policy is evaluable: between one and MaxRules
// rules, every rule naming a known metric/op/severity with a finite
// threshold, rule names unique and non-empty, ci.replicates 0 (the default)
// or within the served bootstrap bounds, and when a webhook is configured a
// non-empty URL with timeout_ms and max_attempts within their bounds.
func (p *Policy) Validate() error {
	if len(p.Rules) == 0 {
		return fmt.Errorf("policy: no rules")
	}
	if len(p.Rules) > MaxRules {
		return fmt.Errorf("policy: %d rules exceeds the limit of %d", len(p.Rules), MaxRules)
	}
	seen := make(map[string]struct{}, len(p.Rules))
	for i, r := range p.Rules {
		if r.Name == "" {
			return fmt.Errorf("policy: rule %d has no name", i)
		}
		if _, dup := seen[r.Name]; dup {
			return fmt.Errorf("policy: duplicate rule name %q", r.Name)
		}
		seen[r.Name] = struct{}{}
		switch r.Metric {
		case MetricRemaining, MetricSwitchTotal, MetricCIUpper, MetricDriftRatio:
		default:
			return fmt.Errorf("policy: rule %q: unknown metric %q (want %s, %s, %s or %s)",
				r.Name, r.Metric, MetricRemaining, MetricSwitchTotal, MetricCIUpper, MetricDriftRatio)
		}
		switch r.Op {
		case ">", ">=", "<", "<=":
		default:
			return fmt.Errorf("policy: rule %q: unknown op %q (want >, >=, < or <=)", r.Name, r.Op)
		}
		switch r.Severity {
		case "", SeverityWarning, SeverityCritical:
		default:
			return fmt.Errorf("policy: rule %q: unknown severity %q (want %s or %s)",
				r.Name, r.Severity, SeverityWarning, SeverityCritical)
		}
		if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
			return fmt.Errorf("policy: rule %q: threshold must be finite", r.Name)
		}
	}
	if p.MinTasks < 0 {
		return fmt.Errorf("policy: min_tasks must be non-negative")
	}
	if p.CI != nil {
		if p.CI.Level != 0 && (p.CI.Level <= 0 || p.CI.Level >= 1) {
			return fmt.Errorf("policy: ci.level must be in (0, 1)")
		}
		if r := p.CI.Replicates; r != 0 && (r < estimator.MinReplicates || r > estimator.MaxReplicates) {
			return fmt.Errorf("policy: ci.replicates must be 0 (default 200) or between %d and %d, got %d",
				estimator.MinReplicates, estimator.MaxReplicates, r)
		}
	}
	if p.Webhook != nil {
		if p.Webhook.URL == "" {
			return fmt.Errorf("policy: webhook.url is empty")
		}
		if t := p.Webhook.TimeoutMS; t < 0 || t > MaxWebhookTimeoutMS {
			return fmt.Errorf("policy: webhook.timeout_ms must be between 0 and %d, got %d", MaxWebhookTimeoutMS, t)
		}
		if a := p.Webhook.MaxAttempts; a < 0 || a > MaxWebhookAttempts {
			return fmt.Errorf("policy: webhook.max_attempts must be between 0 and %d, got %d", MaxWebhookAttempts, a)
		}
	}
	return nil
}

// Needs describes which inputs a policy's rules actually reference, so
// sources skip expensive quantities (the bootstrap CI, the windowed read)
// nobody thresholds on.
type Needs struct {
	CI           bool
	CILevel      float64
	CIReplicates int
	Drift        bool
}

// Needs derives the policy's input requirements.
func (p *Policy) Needs() Needs {
	n := Needs{CILevel: 0.95, CIReplicates: 200}
	if p.CI != nil {
		if p.CI.Level != 0 {
			n.CILevel = p.CI.Level
		}
		if p.CI.Replicates != 0 {
			n.CIReplicates = p.CI.Replicates
		}
	}
	for _, r := range p.Rules {
		switch r.Metric {
		case MetricCIUpper:
			n.CI = true
		case MetricDriftRatio:
			n.Drift = true
		}
	}
	return n
}

// Inputs is one metrics snapshot a policy is evaluated against. HasCI,
// HasDrift and NoSwitch report availability: a rule over an unavailable
// metric is skipped and surfaced in Decision.Unavailable rather than guessed
// at.
type Inputs struct {
	Remaining   float64
	SwitchTotal float64
	CIUpper     float64
	HasCI       bool
	DriftRatio  float64
	HasDrift    bool
	// NoSwitch marks a session that does not select SWITCH: remaining,
	// switch_total and drift_ratio all derive from it, so none is available.
	NoSwitch bool
	Tasks    int64
	Votes    int64
	// Version is the session version the snapshot was read at (read BEFORE
	// the estimates, so concurrent mutation yields re-evaluation, not a skip).
	Version uint64
}

// DriftRatio computes the windowed drift ratio with the division guarded:
// a zero all-time estimate with a non-zero recent one clamps to maxDriftRatio
// (JSON cannot carry +Inf), and zero-over-zero is flat (1).
func DriftRatio(recent, allTime float64) float64 {
	const maxDriftRatio = 1e6
	if allTime <= 0 {
		if recent <= 0 {
			return 1
		}
		return maxDriftRatio
	}
	r := recent / allTime
	if r > maxDriftRatio {
		return maxDriftRatio
	}
	return r
}

// Violation is one triggered rule in a decision.
type Violation struct {
	Rule      string  `json:"rule"`
	Metric    string  `json:"metric"`
	Severity  string  `json:"severity"`
	Value     float64 `json:"value"`
	Op        string  `json:"op"`
	Threshold float64 `json:"threshold"`
	Message   string  `json:"message"`
}

// DecisionInputs is the wire echo of the evaluated metrics snapshot, so a
// reader of the decision sees what the rules saw.
type DecisionInputs struct {
	Remaining   float64  `json:"remaining"`
	SwitchTotal float64  `json:"switch_total"`
	CIUpper     *float64 `json:"ci_upper,omitempty"`
	DriftRatio  *float64 `json:"drift_ratio,omitempty"`
}

// Decision is one gate evaluation: the action, the violations that produced
// it, and the session position it was computed at. Serialized once per
// version by the Gate and served pre-encoded.
type Decision struct {
	Session     string         `json:"session,omitempty"`
	Action      string         `json:"action"`
	Version     uint64         `json:"version"`
	Tasks       int64          `json:"tasks"`
	Votes       int64          `json:"votes"`
	EvaluatedAt time.Time      `json:"evaluated_at"`
	Armed       bool           `json:"armed"`
	Violations  []Violation    `json:"violations,omitempty"`
	Unavailable []string       `json:"unavailable,omitempty"`
	Inputs      DecisionInputs `json:"inputs"`
}

// Evaluate applies the policy to one inputs snapshot. Before MinTasks the
// gate is unarmed and always proceeds (Armed reports it); rules over
// unavailable metrics are listed in Unavailable and do not violate.
func (p *Policy) Evaluate(in Inputs) Decision {
	dec := Decision{
		Action:  ActionProceed.String(),
		Version: in.Version,
		Tasks:   in.Tasks,
		Votes:   in.Votes,
		Armed:   in.Tasks >= p.MinTasks,
		Inputs: DecisionInputs{
			Remaining:   in.Remaining,
			SwitchTotal: in.SwitchTotal,
		},
	}
	if in.HasCI {
		v := in.CIUpper
		dec.Inputs.CIUpper = &v
	}
	if in.HasDrift {
		v := in.DriftRatio
		dec.Inputs.DriftRatio = &v
	}
	if !dec.Armed {
		return dec
	}
	action := ActionProceed
	for _, r := range p.Rules {
		value, ok := in.metric(r.Metric)
		if !ok {
			dec.Unavailable = append(dec.Unavailable, r.Name)
			continue
		}
		var hit bool
		switch r.Op {
		case ">":
			hit = value > r.Value
		case ">=":
			hit = value >= r.Value
		case "<":
			hit = value < r.Value
		case "<=":
			hit = value <= r.Value
		}
		if !hit {
			continue
		}
		sev := r.Severity
		if sev == "" {
			sev = SeverityCritical
		}
		dec.Violations = append(dec.Violations, Violation{
			Rule:      r.Name,
			Metric:    r.Metric,
			Severity:  sev,
			Value:     value,
			Op:        r.Op,
			Threshold: r.Value,
			Message:   fmt.Sprintf("%s: %s %.6g %s %.6g", r.Name, r.Metric, value, r.Op, r.Value),
		})
		if sev == SeverityCritical {
			action = ActionQuarantine
		} else if action == ActionProceed {
			action = ActionWarn
		}
	}
	dec.Action = action.String()
	return dec
}

// metric returns the value a rule over the named metric reads, and whether
// the snapshot has it.
func (in Inputs) metric(name string) (float64, bool) {
	switch name {
	case MetricRemaining:
		return in.Remaining, !in.NoSwitch
	case MetricSwitchTotal:
		return in.SwitchTotal, !in.NoSwitch
	case MetricCIUpper:
		return in.CIUpper, in.HasCI
	case MetricDriftRatio:
		return in.DriftRatio, in.HasDrift && !in.NoSwitch
	}
	return 0, true
}

// ParseAction inverts Action.String (the decision wire form).
func ParseAction(s string) (Action, error) {
	switch s {
	case "proceed":
		return ActionProceed, nil
	case "warn":
		return ActionWarn, nil
	case "quarantine":
		return ActionQuarantine, nil
	}
	return ActionProceed, fmt.Errorf("policy: unknown action %q", s)
}
