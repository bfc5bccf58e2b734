package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dqm"
	"dqm/internal/metrics"
	"dqm/internal/policy"
	"dqm/internal/xrand"
)

// ingestTask posts one task of votes: every item in [base, base+n) voted by
// 3 workers, dirty votes from the first `dirtyWorkers` of them.
func ingestTask(t *testing.T, srv http.Handler, id string, base, n, dirtyWorkers int) {
	t.Helper()
	var votes []map[string]any
	for i := 0; i < n; i++ {
		for w := 0; w < 3; w++ {
			votes = append(votes, map[string]any{"item": base + i, "worker": w, "dirty": w < dirtyWorkers})
		}
	}
	do(t, srv, "POST", "/v1/sessions/"+id+"/votes", map[string]any{"votes": votes, "end_task": true}, http.StatusOK)
}

// gateDecision fetches and decodes the current gate decision.
func gateDecision(t *testing.T, srv http.Handler, id string) map[string]any {
	t.Helper()
	return do(t, srv, "GET", "/v1/sessions/"+id+"/gate", nil, http.StatusOK)
}

// waitGateAction polls the gate endpoint until the decision reports the
// action (evaluation is asynchronous off the version notifier).
func waitGateAction(t *testing.T, srv http.Handler, id, action string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var last map[string]any
	for time.Now().Before(deadline) {
		last = gateDecision(t, srv, id)
		if last["action"] == action {
			return last
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("gate never reached %q (last decision %v)", action, last)
	return nil
}

// TestGateLifecycle is the end-to-end contract under -race: a policy is
// attached, ingest degrades the stream until the remaining-error rule trips,
// the gate transitions proceed→quarantine, and the transition webhook is
// delivered — with a retry after an injected 500 — carrying the quarantine
// decision. A laxer policy swap transitions back and fires again.
func TestGateLifecycle(t *testing.T) {
	var (
		hookMu     sync.Mutex
		hookBodies []map[string]any
		hookHits   atomic.Int64
	)
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hookHits.Add(1) == 1 {
			w.WriteHeader(http.StatusInternalServerError) // injected fault: forces one retry
			return
		}
		var dec map[string]any
		if err := json.NewDecoder(r.Body).Decode(&dec); err != nil {
			t.Errorf("webhook body: %v", err)
		}
		hookMu.Lock()
		hookBodies = append(hookBodies, dec)
		hookMu.Unlock()
	}))
	defer hook.Close()

	srv := mustServer(t, serverConfig{
		GateMinInterval: time.Millisecond,
		Webhook:         policy.DispatcherConfig{BaseBackoff: time.Millisecond},
	})
	defer srv.Close()
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "lc", "items": 100}, http.StatusCreated)

	put := `{"rules":[{"name":"too-dirty","metric":"remaining","op":">","value":10}],
	         "webhook":{"url":"` + hook.URL + `"}}`
	req := httptest.NewRequest("PUT", "/v1/sessions/lc/policy", strings.NewReader(put))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("PUT policy = %d (%s)", rec.Code, rec.Body.String())
	}
	var putOut map[string]any
	_ = json.Unmarshal(rec.Body.Bytes(), &putOut)
	if putOut["action"] != "proceed" {
		t.Fatalf("fresh session PUT response action = %v, want proceed", putOut["action"])
	}

	// Clean phase: unanimous not-dirty votes keep remaining at 0.
	for task := 0; task < 4; task++ {
		ingestTask(t, srv, "lc", task*5, 5, 0)
	}
	dec := waitGateAction(t, srv, "lc", "proceed")
	if dec["armed"] != true {
		t.Fatalf("gate not armed: %v", dec)
	}

	// Degraded phase: minority-dirty votes (1 of 3 workers) raise the
	// remaining-error estimate ~2.5 per task; the rule trips past 10.
	for task := 4; task < 10; task++ {
		ingestTask(t, srv, "lc", task*5, 5, 1)
	}
	dec = waitGateAction(t, srv, "lc", "quarantine")
	vios := dec["violations"].([]any)
	if len(vios) != 1 || vios[0].(map[string]any)["rule"] != "too-dirty" {
		t.Fatalf("violations = %v", vios)
	}
	if dec["inputs"].(map[string]any)["remaining"].(float64) <= 10 {
		t.Fatalf("quarantine with remaining <= 10: %v", dec)
	}

	// The transition webhook arrives despite the injected 500 (one retry).
	deadline := time.Now().Add(5 * time.Second)
	for {
		hookMu.Lock()
		n := len(hookBodies)
		hookMu.Unlock()
		if n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("webhook never delivered (hits=%d)", hookHits.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	hookMu.Lock()
	first := hookBodies[0]
	hookMu.Unlock()
	if first["action"] != "quarantine" || first["session"] != "lc" {
		t.Fatalf("webhook payload = %v", first)
	}
	if hookHits.Load() < 2 {
		t.Fatalf("hits = %d, want >= 2 (500 then retry)", hookHits.Load())
	}

	// A laxer policy swap re-evaluates synchronously: quarantine→proceed, and
	// that transition is a webhook too.
	lax := `{"rules":[{"name":"too-dirty","metric":"remaining","op":">","value":100000}],
	         "webhook":{"url":"` + hook.URL + `"}}`
	req = httptest.NewRequest("PUT", "/v1/sessions/lc/policy", strings.NewReader(lax))
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("PUT lax policy = %d", rec.Code)
	}
	_ = json.Unmarshal(rec.Body.Bytes(), &putOut)
	if putOut["action"] != "proceed" {
		t.Fatalf("lax PUT action = %v, want proceed immediately", putOut["action"])
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		hookMu.Lock()
		n := len(hookBodies)
		hookMu.Unlock()
		if n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("proceed-transition webhook never delivered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	hookMu.Lock()
	second := hookBodies[1]
	hookMu.Unlock()
	if second["action"] != "proceed" {
		t.Fatalf("second webhook payload = %v", second)
	}
}

// TestGateETagConditionalReads: the gate endpoint serves pre-serialized
// decisions with the decision version as ETag and answers If-None-Match with
// an empty 304.
func TestGateETagConditionalReads(t *testing.T) {
	srv := mustServer(t, serverConfig{GateMinInterval: time.Millisecond})
	defer srv.Close()
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "et", "items": 10}, http.StatusCreated)
	putPolicy(t, srv, "et", `{"rules":[{"name":"r","metric":"remaining","op":">","value":5}]}`)

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sessions/et/gate", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET gate = %d", rec.Code)
	}
	etag := rec.Header().Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on gate response")
	}

	req := httptest.NewRequest("GET", "/v1/sessions/et/gate", nil)
	req.Header.Set("If-None-Match", etag)
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
		t.Fatalf("conditional GET = %d with %d bytes, want empty 304", rec.Code, rec.Body.Len())
	}

	// Mutation invalidates: the decision re-evaluates at a new version.
	ingestTask(t, srv, "et", 0, 3, 0)
	deadline := time.Now().Add(5 * time.Second)
	for {
		req = httptest.NewRequest("GET", "/v1/sessions/et/gate", nil)
		req.Header.Set("If-None-Match", etag)
		rec = httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code == http.StatusOK {
			if rec.Header().Get("ETag") == etag {
				t.Fatal("fresh decision reused the old ETag")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("gate decision never advanced past the old ETag")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func putPolicy(t *testing.T, srv http.Handler, id, doc string) {
	t.Helper()
	req := httptest.NewRequest("PUT", "/v1/sessions/"+id+"/policy", strings.NewReader(doc))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("PUT policy = %d (%s)", rec.Code, rec.Body.String())
	}
}

// TestPolicyPersistsAcrossRestart: a session's policy rides its WAL meta; a
// rebuilt server over the same data dir serves the same policy and re-arms
// the gate without any client action.
func TestPolicyPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := serverConfig{DataDir: dir, Fsync: dqm.FsyncNever, GateMinInterval: time.Millisecond}
	srv := mustServer(t, cfg)
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "dur", "items": 20}, http.StatusCreated)
	doc := `{"rules":[{"name":"r","metric":"remaining","op":">","value":3}],"min_tasks":1}`
	putPolicy(t, srv, "dur", doc)
	for task := 0; task < 4; task++ {
		ingestTask(t, srv, "dur", task*5, 5, 1)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := mustServer(t, cfg)
	defer srv2.Close()
	srv2.engine.BootRecovery()
	got := do(t, srv2, "GET", "/v1/sessions/dur/policy", nil, http.StatusOK)
	if got["source"] != "session" {
		t.Fatalf("policy source after restart = %v", got["source"])
	}
	var back map[string]any
	_ = json.Unmarshal([]byte(doc), &back)
	gotDoc, _ := json.Marshal(got["policy"])
	wantDoc, _ := json.Marshal(back)
	if string(gotDoc) != string(wantDoc) {
		t.Fatalf("policy after restart = %s, want %s", gotDoc, wantDoc)
	}
	// The recovered gate evaluates the recovered estimator state: 4 tasks of
	// minority-dirty votes put remaining ~10 > 3 → quarantine.
	dec := waitGateAction(t, srv2, "dur", "quarantine")
	if dec["tasks"].(float64) != 4 {
		t.Fatalf("recovered decision tasks = %v", dec["tasks"])
	}

	// DELETE drops it durably too.
	do(t, srv2, "DELETE", "/v1/sessions/dur/policy", nil, http.StatusNoContent)
	do(t, srv2, "GET", "/v1/sessions/dur/policy", nil, http.StatusNotFound)
	do(t, srv2, "GET", "/v1/sessions/dur/gate", nil, http.StatusNotFound)
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	srv3 := mustServer(t, cfg)
	defer srv3.Close()
	srv3.engine.BootRecovery()
	do(t, srv3, "GET", "/v1/sessions/dur/policy", nil, http.StatusNotFound)
}

// TestServerDefaultPolicy: -policy-file applies to every session without its
// own policy; a session PUT overrides it, DELETE falls back to it.
func TestServerDefaultPolicy(t *testing.T) {
	def := json.RawMessage(`{"rules":[{"name":"default-rule","metric":"switch_total","op":">","value":1000}]}`)
	srv := mustServer(t, serverConfig{DefaultPolicy: def, GateMinInterval: time.Millisecond})
	defer srv.Close()
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "dp", "items": 10}, http.StatusCreated)

	got := do(t, srv, "GET", "/v1/sessions/dp/policy", nil, http.StatusOK)
	if got["source"] != "server_default" {
		t.Fatalf("source = %v, want server_default", got["source"])
	}
	dec := gateDecision(t, srv, "dp")
	if dec["action"] != "proceed" {
		t.Fatalf("default gate decision = %v", dec)
	}

	putPolicy(t, srv, "dp", `{"rules":[{"name":"own","metric":"remaining","op":">","value":2}]}`)
	got = do(t, srv, "GET", "/v1/sessions/dp/policy", nil, http.StatusOK)
	if got["source"] != "session" {
		t.Fatalf("source after PUT = %v, want session", got["source"])
	}

	// DELETE returns to the default (still gated), not to 404.
	do(t, srv, "DELETE", "/v1/sessions/dp/policy", nil, http.StatusNoContent)
	got = do(t, srv, "GET", "/v1/sessions/dp/policy", nil, http.StatusOK)
	if got["source"] != "server_default" {
		t.Fatalf("source after DELETE = %v, want server_default", got["source"])
	}
	dec = waitGateAction(t, srv, "dp", "proceed")
	if dec["violations"] != nil {
		t.Fatalf("default policy decision = %v", dec)
	}
}

// TestGateDroppedWithSession: deleting a session tears down its gate (a
// recreated session under the same id starts ungated).
func TestGateDroppedWithSession(t *testing.T) {
	srv := mustServer(t, serverConfig{GateMinInterval: time.Millisecond})
	defer srv.Close()
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "gd", "items": 10}, http.StatusCreated)
	putPolicy(t, srv, "gd", `{"rules":[{"name":"r","metric":"remaining","op":">","value":5}]}`)
	gateDecision(t, srv, "gd")
	do(t, srv, "DELETE", "/v1/sessions/gd", nil, http.StatusNoContent)
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "gd", "items": 10}, http.StatusCreated)
	do(t, srv, "GET", "/v1/sessions/gd/gate", nil, http.StatusNotFound)
	do(t, srv, "GET", "/v1/sessions/gd/policy", nil, http.StatusNotFound)
}

// TestGateDriftRuleWiring: a windowed session feeds the decayed-window drift
// ratio into drift_ratio rules; a windowless session reports the rule as
// unavailable instead of guessing.
func TestGateDriftRuleWiring(t *testing.T) {
	srv := mustServer(t, serverConfig{GateMinInterval: time.Millisecond})
	defer srv.Close()
	doc := `{"rules":[{"name":"drifting","metric":"drift_ratio","op":">","value":0.2}]}`

	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "flat", "items": 50}, http.StatusCreated)
	putPolicy(t, srv, "flat", doc)
	ingestTask(t, srv, "flat", 0, 5, 1)
	dec := waitGateAction(t, srv, "flat", "proceed")
	unavailable, _ := dec["unavailable"].([]any)
	if len(unavailable) != 1 || unavailable[0] != "drifting" {
		t.Fatalf("windowless drift rule not reported unavailable: %v", dec)
	}

	do(t, srv, "POST", "/v1/sessions", map[string]any{
		"id": "win", "items": 50,
		"config": map[string]any{"window": map[string]any{"size": 2, "decay_alpha": 0.5}},
	}, http.StatusCreated)
	putPolicy(t, srv, "win", doc)
	// Minority-dirty tasks: the decayed window's remaining estimate tracks
	// the recent (dirty) stream, and the drift ratio becomes available and
	// positive once a window completes.
	for task := 0; task < 6; task++ {
		ingestTask(t, srv, "win", task*5, 5, 1)
	}
	dec = waitGateAction(t, srv, "win", "quarantine")
	inputs := dec["inputs"].(map[string]any)
	if _, ok := inputs["drift_ratio"]; !ok {
		t.Fatalf("windowed decision lacks drift_ratio input: %v", dec)
	}
}

// TestGateDriftDeliversEveryTransition drives the production gate wiring
// (each gate's transition callback feeding the server's webhook dispatcher)
// with drifting ingest on two windowed sessions. Every session must
// transition, every transition must reach the receiver with no dead letters,
// and no cached decision may lag its session once the gates quiesce.
func TestGateDriftDeliversEveryTransition(t *testing.T) {
	const (
		// At 2,000 items the remaining-error estimate crosses the rule's 50
		// more than once before it settles above it, so a gate may change
		// action several times while deliveries are in flight.
		items      = 2000
		workers    = 25
		driftAfter = 200 // tasks per session before the dirty rate jumps
	)
	var (
		hookMu sync.Mutex
		hooks  = map[string]int{} // receiver POSTs by session
	)
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var dec struct {
			Session string `json:"session"`
		}
		if err := json.NewDecoder(r.Body).Decode(&dec); err != nil {
			t.Errorf("webhook body: %v", err)
		}
		hookMu.Lock()
		hooks[dec.Session]++
		hookMu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}))
	defer hook.Close()

	srv := mustServer(t, serverConfig{GateMinInterval: 5 * time.Millisecond})
	defer srv.Close()
	doc := `{"rules":[
		{"name":"remaining-errors","metric":"remaining","op":">","value":50,"severity":"critical"},
		{"name":"drifting","metric":"drift_ratio","op":">","value":0.5,"severity":"warning"}],
		"webhook":{"url":"` + hook.URL + `"}}`
	ids := []string{"drift-0", "drift-1"}
	for _, id := range ids {
		do(t, srv, "POST", "/v1/sessions", map[string]any{
			"id": id, "items": items,
			"config": map[string]any{"window": map[string]any{"size": 50, "stride": 25, "decay_alpha": 0.3}},
		}, http.StatusCreated)
		putPolicy(t, srv, id, doc)
	}
	transitions := func() int64 {
		v, _ := metrics.Default.Value("dqm_gate_transitions_total")
		return int64(v)
	}
	before := transitions()

	var wg sync.WaitGroup
	for k, id := range ids {
		wg.Add(1)
		go func(seed uint64, id string) {
			defer wg.Done()
			rng := xrand.New(seed)
			votes := make([]map[string]any, 20)
			for task := 0; task < 2*driftAfter; task++ {
				rate := 0.05
				if task >= driftAfter {
					rate = 0.30
				}
				for i := range votes {
					votes[i] = map[string]any{"item": rng.IntN(items), "worker": rng.IntN(workers), "dirty": rng.Bernoulli(rate)}
				}
				body, _ := json.Marshal(map[string]any{"votes": votes, "end_task": true})
				req := httptest.NewRequest("POST", "/v1/sessions/"+id+"/votes", bytes.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("%s task %d: POST votes = %d (%s)", id, task, rec.Code, rec.Body.String())
					return
				}
			}
		}(uint64(k+1), id)
	}
	wg.Wait()

	// Quiesce: every gate has evaluated its session's last version and every
	// transition has left the dispatcher as a delivery or a dead letter.
	settled := func() bool {
		for _, id := range ids {
			if srv.gate(id).Stale() {
				return false
			}
		}
		return srv.dispatcher.Deliveries()+srv.dispatcher.DeadLetters() >= transitions()-before
	}
	for deadline := time.Now().Add(5 * time.Second); !settled() && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	for _, id := range ids {
		if srv.gate(id).Stale() {
			t.Errorf("%s: gate decision still stale after quiesce", id)
		}
	}
	n := transitions() - before
	hookMu.Lock()
	defer hookMu.Unlock()
	var posts int64
	for _, id := range ids {
		if hooks[id] == 0 {
			t.Errorf("%s: no transition reached the receiver", id)
		}
		posts += int64(hooks[id])
	}
	if posts != n {
		t.Errorf("receiver got %d POSTs for %d gate transitions", posts, n)
	}
	if dl := srv.dispatcher.DeadLetters(); dl != 0 {
		t.Errorf("%d webhook dead letters, want 0", dl)
	}
}

// TestPolicyKnobBounds: PUT refuses a policy with a knob past its bound with
// 400 invalid_policy naming the field, and attaches nothing. A policy over a
// bound that is already stored in session meta (written by a build without
// the bounds) serves ungated, like any stored policy that no longer parses.
func TestPolicyKnobBounds(t *testing.T) {
	srv := mustServer(t, serverConfig{})
	defer srv.Close()
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "kb", "items": 10}, http.StatusCreated)
	rule := `{"name":"r","metric":"remaining","op":">","value":1}`
	var rules []string
	for i := 0; i < policy.MaxRules+1; i++ {
		rules = append(rules, fmt.Sprintf(`{"name":"r%d","metric":"remaining","op":">","value":1}`, i))
	}
	for _, c := range []struct{ doc, field string }{
		{`{"rules":[` + rule + `],"ci":{"replicates":5}}`, "ci.replicates"},
		{`{"rules":[` + rule + `],"ci":{"replicates":2000000000}}`, "ci.replicates"},
		{`{"rules":[` + rule + `],"webhook":{"url":"http://h","timeout_ms":2000000000}}`, "webhook.timeout_ms"},
		{`{"rules":[` + rule + `],"webhook":{"url":"http://h","max_attempts":2000000000}}`, "webhook.max_attempts"},
		{`{"rules":[` + strings.Join(rules, ",") + `]}`, "rules"},
	} {
		req := httptest.NewRequest("PUT", "/v1/sessions/kb/policy", strings.NewReader(c.doc))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		body := rec.Body.String()
		if rec.Code != http.StatusBadRequest || !strings.Contains(body, `"invalid_policy"`) || !strings.Contains(body, c.field) {
			t.Fatalf("PUT policy over the %s bound = %d %s, want 400 invalid_policy naming it", c.field, rec.Code, body)
		}
	}
	do(t, srv, "GET", "/v1/sessions/kb/gate", nil, http.StatusNotFound)

	stored := `{"rules":[` + rule + `],"webhook":{"url":"http://h","timeout_ms":2000000000}}`
	if err := srv.engine.SetSessionPolicy("kb", []byte(stored)); err != nil {
		t.Fatal(err)
	}
	if got := errCode(t, srv, "GET", "/v1/sessions/kb/gate", "", "", http.StatusNotFound); got != codePolicyNotFound {
		t.Fatalf("gate on a stored policy over a bound: code %q, want %q", got, codePolicyNotFound)
	}
	ingestTask(t, srv, "kb", 0, 5, 3)
	putPolicy(t, srv, "kb", `{"rules":[`+rule+`]}`)
	gateDecision(t, srv, "kb")
}
