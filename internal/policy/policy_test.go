package policy

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestParseValidPolicy(t *testing.T) {
	raw := []byte(`{
		"rules": [
			{"name": "too-dirty", "metric": "remaining", "op": ">", "value": 25},
			{"name": "ci-wide", "metric": "ci_upper", "op": ">", "value": 120, "severity": "warning"},
			{"name": "drifting", "metric": "drift_ratio", "op": ">", "value": 2}
		],
		"min_tasks": 50,
		"ci": {"level": 0.9, "replicates": 100},
		"webhook": {"url": "http://example.com/hook", "timeout_ms": 500, "max_attempts": 4}
	}`)
	p, err := Parse(raw)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(p.Rules) != 3 || p.MinTasks != 50 {
		t.Fatalf("unexpected policy: %+v", p)
	}
	n := p.Needs()
	if !n.CI || !n.Drift {
		t.Fatalf("Needs = %+v, want CI and Drift", n)
	}
	if n.CILevel != 0.9 || n.CIReplicates != 100 {
		t.Fatalf("Needs CI params = %+v", n)
	}
}

func TestNeedsDefaults(t *testing.T) {
	p := &Policy{Rules: []Rule{{Name: "r", Metric: MetricRemaining, Op: ">", Value: 1}}}
	n := p.Needs()
	if n.CI || n.Drift {
		t.Fatalf("Needs = %+v, want neither CI nor Drift", n)
	}
	if n.CILevel != 0.95 || n.CIReplicates != 200 {
		t.Fatalf("default CI params = %+v", n)
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		name string
		raw  string
		want string
	}{
		{"empty rules", `{"rules": []}`, "no rules"},
		{"missing name", `{"rules": [{"metric": "remaining", "op": ">", "value": 1}]}`, "no name"},
		{"dup name", `{"rules": [{"name":"a","metric":"remaining","op":">","value":1},{"name":"a","metric":"remaining","op":"<","value":1}]}`, "duplicate"},
		{"bad metric", `{"rules": [{"name":"a","metric":"nope","op":">","value":1}]}`, "unknown metric"},
		{"bad op", `{"rules": [{"name":"a","metric":"remaining","op":"!=","value":1}]}`, "unknown op"},
		{"bad severity", `{"rules": [{"name":"a","metric":"remaining","op":">","value":1,"severity":"fatal"}]}`, "unknown severity"},
		{"negative min_tasks", `{"min_tasks": -1, "rules": [{"name":"a","metric":"remaining","op":">","value":1}]}`, "min_tasks"},
		{"bad ci level", `{"ci": {"level": 1.5}, "rules": [{"name":"a","metric":"remaining","op":">","value":1}]}`, "ci.level"},
		{"empty webhook url", `{"webhook": {"url": ""}, "rules": [{"name":"a","metric":"remaining","op":">","value":1}]}`, "webhook.url"},
		{"not json", `{`, "policy:"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.raw))
			if err == nil {
				t.Fatalf("Parse accepted %s", tc.raw)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// boundedPolicy is a one-rule policy with extra top-level fields.
func boundedPolicy(rules int, extra string) string {
	rs := make([]string, rules)
	for i := range rs {
		rs[i] = fmt.Sprintf(`{"name":"r%d","metric":"remaining","op":">","value":1}`, i)
	}
	if extra != "" {
		extra = ", " + extra
	}
	return `{"rules": [` + strings.Join(rs, ",") + `]` + extra + `}`
}

// TestParseBounds: Parse accepts every knob at its bound and refuses it one
// past, naming the field. The refused values include the ones a probe of the
// unbounded parser accepted: ci.replicates 5 (which then failed every
// bootstrap the gate ran) and 2,000,000,000, timeout_ms and max_attempts of
// 2,000,000,000, and 10,000 rules.
func TestParseBounds(t *testing.T) {
	const big = 2000000000
	accepted := []string{
		boundedPolicy(1, `"ci": {"replicates": 0}`),
		boundedPolicy(1, `"ci": {"replicates": 10}`),
		boundedPolicy(1, `"ci": {"replicates": 10000}`),
		boundedPolicy(1, `"webhook": {"url": "http://h", "timeout_ms": 60000, "max_attempts": 10}`),
		boundedPolicy(1, `"webhook": {"url": "http://h", "timeout_ms": 0, "max_attempts": 0}`),
		boundedPolicy(MaxRules, ""),
	}
	for _, raw := range accepted {
		if _, err := Parse([]byte(raw)); err != nil {
			t.Errorf("Parse refused a policy within bounds: %v", err)
		}
	}
	refused := []struct {
		name, raw, want string
	}{
		{"replicates 5", boundedPolicy(1, `"ci": {"replicates": 5}`), "ci.replicates"},
		{"replicates 9", boundedPolicy(1, `"ci": {"replicates": 9}`), "ci.replicates"},
		{"replicates 10001", boundedPolicy(1, `"ci": {"replicates": 10001}`), "ci.replicates"},
		{"replicates 2e9", boundedPolicy(1, fmt.Sprintf(`"ci": {"replicates": %d}`, big)), "ci.replicates"},
		{"replicates -1", boundedPolicy(1, `"ci": {"replicates": -1}`), "ci.replicates"},
		{"timeout 60001", boundedPolicy(1, `"webhook": {"url": "http://h", "timeout_ms": 60001}`), "webhook.timeout_ms"},
		{"timeout 2e9", boundedPolicy(1, fmt.Sprintf(`"webhook": {"url": "http://h", "timeout_ms": %d}`, big)), "webhook.timeout_ms"},
		{"timeout -1", boundedPolicy(1, `"webhook": {"url": "http://h", "timeout_ms": -1}`), "webhook.timeout_ms"},
		{"attempts 11", boundedPolicy(1, `"webhook": {"url": "http://h", "max_attempts": 11}`), "webhook.max_attempts"},
		{"attempts 2e9", boundedPolicy(1, fmt.Sprintf(`"webhook": {"url": "http://h", "max_attempts": %d}`, big)), "webhook.max_attempts"},
		{"attempts -1", boundedPolicy(1, `"webhook": {"url": "http://h", "max_attempts": -1}`), "webhook.max_attempts"},
		{"65 rules", boundedPolicy(MaxRules+1, ""), "rules"},
		{"10000 rules", boundedPolicy(10000, ""), "rules"},
	}
	for _, tc := range refused {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.raw))
			if err == nil {
				t.Fatal("Parse accepted it")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

// TestDocumentedPoliciesParse: every policy document in the README and the
// API reference (a JSON code block with a "rules" array) stays within the
// bounds Parse enforces.
func TestDocumentedPoliciesParse(t *testing.T) {
	block := regexp.MustCompile("(?s)```json\n(.*?)```")
	found := 0
	for _, path := range []string{"../../README.md", "../../docs/API.md"} {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range block.FindAllSubmatch(doc, -1) {
			var probe struct {
				Rules json.RawMessage `json:"rules"`
			}
			if json.Unmarshal(m[1], &probe) != nil || len(probe.Rules) == 0 || probe.Rules[0] != '[' {
				continue
			}
			found++
			if _, err := Parse(m[1]); err != nil {
				t.Errorf("%s: documented policy refused: %v\n%s", path, err, m[1])
			}
		}
	}
	if found == 0 {
		t.Fatal("no documented policy found")
	}
}

func TestEvaluateActions(t *testing.T) {
	p := &Policy{Rules: []Rule{
		{Name: "crit", Metric: MetricRemaining, Op: ">", Value: 25},
		{Name: "warn", Metric: MetricSwitchTotal, Op: ">=", Value: 100, Severity: SeverityWarning},
	}}
	cases := []struct {
		name string
		in   Inputs
		want string
		vio  int
	}{
		{"clean", Inputs{Remaining: 10, SwitchTotal: 50}, "proceed", 0},
		{"warn only", Inputs{Remaining: 10, SwitchTotal: 100}, "warn", 1},
		{"critical", Inputs{Remaining: 26, SwitchTotal: 50}, "quarantine", 1},
		{"both", Inputs{Remaining: 26, SwitchTotal: 120}, "quarantine", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dec := p.Evaluate(tc.in)
			if dec.Action != tc.want || len(dec.Violations) != tc.vio {
				t.Fatalf("Evaluate(%+v) = %s with %d violations, want %s with %d",
					tc.in, dec.Action, len(dec.Violations), tc.want, tc.vio)
			}
			if !dec.Armed {
				t.Fatal("decision should be armed with MinTasks=0")
			}
		})
	}
}

func TestEvaluateMinTasksDisarms(t *testing.T) {
	p := &Policy{
		MinTasks: 100,
		Rules:    []Rule{{Name: "crit", Metric: MetricRemaining, Op: ">", Value: 0}},
	}
	dec := p.Evaluate(Inputs{Remaining: 1e9, Tasks: 99})
	if dec.Action != "proceed" || dec.Armed {
		t.Fatalf("unarmed gate produced %s (armed=%v), want proceed (unarmed)", dec.Action, dec.Armed)
	}
	dec = p.Evaluate(Inputs{Remaining: 1e9, Tasks: 100})
	if dec.Action != "quarantine" || !dec.Armed {
		t.Fatalf("armed gate produced %s (armed=%v), want quarantine (armed)", dec.Action, dec.Armed)
	}
}

func TestEvaluateUnavailableMetricsSkipped(t *testing.T) {
	p := &Policy{Rules: []Rule{
		{Name: "ci", Metric: MetricCIUpper, Op: ">", Value: 1},
		{Name: "drift", Metric: MetricDriftRatio, Op: ">", Value: 1},
	}}
	dec := p.Evaluate(Inputs{CIUpper: 100, DriftRatio: 100}) // Has* false
	if dec.Action != "proceed" {
		t.Fatalf("action = %s, want proceed when metrics unavailable", dec.Action)
	}
	if len(dec.Unavailable) != 2 {
		t.Fatalf("Unavailable = %v, want both rules listed", dec.Unavailable)
	}
	dec = p.Evaluate(Inputs{CIUpper: 100, HasCI: true, DriftRatio: 100, HasDrift: true})
	if dec.Action != "quarantine" || len(dec.Unavailable) != 0 {
		t.Fatalf("action = %s unavailable = %v, want quarantine with none", dec.Action, dec.Unavailable)
	}
}

func TestDecisionJSONRoundTrips(t *testing.T) {
	p := &Policy{Rules: []Rule{{Name: "r", Metric: MetricRemaining, Op: ">", Value: 5}}}
	dec := p.Evaluate(Inputs{Remaining: 10, SwitchTotal: 20, Tasks: 3, Votes: 9, Version: 42})
	dec.Session = "s1"
	body, err := json.Marshal(dec)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Decision
	if err := json.Unmarshal(body, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Session != "s1" || back.Action != "quarantine" || back.Version != 42 || back.Tasks != 3 {
		t.Fatalf("round trip lost fields: %+v", back)
	}
	if back.Inputs.CIUpper != nil || back.Inputs.DriftRatio != nil {
		t.Fatal("absent optional inputs should stay absent")
	}
}

func TestDriftRatio(t *testing.T) {
	cases := []struct {
		recent, allTime, want float64
	}{
		{10, 5, 2},
		{0, 0, 1},
		{5, 0, 1e6},    // clamped, not +Inf
		{1e12, 1, 1e6}, // clamped high
		{0, 10, 0},
	}
	for _, tc := range cases {
		if got := DriftRatio(tc.recent, tc.allTime); got != tc.want {
			t.Errorf("DriftRatio(%g, %g) = %g, want %g", tc.recent, tc.allTime, got, tc.want)
		}
	}
	if r := DriftRatio(math.Inf(1), 1); math.IsInf(r, 0) {
		t.Fatal("DriftRatio must never return Inf")
	}
}

func TestParseActionRoundTrip(t *testing.T) {
	for _, a := range []Action{ActionProceed, ActionWarn, ActionQuarantine} {
		got, err := ParseAction(a.String())
		if err != nil || got != a {
			t.Fatalf("ParseAction(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseAction("panic"); err == nil {
		t.Fatal("ParseAction accepted unknown action")
	}
}

func BenchmarkGateEvaluate(b *testing.B) {
	p := &Policy{Rules: []Rule{
		{Name: "too-dirty", Metric: MetricRemaining, Op: ">", Value: 25},
		{Name: "total", Metric: MetricSwitchTotal, Op: ">", Value: 500, Severity: SeverityWarning},
		{Name: "drift", Metric: MetricDriftRatio, Op: ">", Value: 2},
	}}
	in := Inputs{Remaining: 12, SwitchTotal: 120, DriftRatio: 1.1, HasDrift: true, Tasks: 400, Votes: 2000, Version: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dec := p.Evaluate(in)
		if dec.Action != "proceed" {
			b.Fatalf("unexpected action %s", dec.Action)
		}
	}
}
