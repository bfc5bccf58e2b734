package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"dqm"
	"dqm/internal/metrics"
)

// pumpGoroutines counts the hub's per-session pump goroutines in the
// goroutine profile. Each pump owns its session's one notifier
// registration (registered when the pump starts, removed when it exits).
func pumpGoroutines() int {
	var buf bytes.Buffer
	_ = pprof.Lookup("goroutine").WriteTo(&buf, 2)
	return strings.Count(buf.String(), "hub.(*sessionHub).pump(")
}

// waitPumps waits until exactly want pumps run: teardown retires a pump
// asynchronously (Close excepted, which waits).
func waitPumps(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for pumpGoroutines() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d pumps running, want %d", pumpGoroutines(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestOnePumpPerSession: a watched, a gated, and a watched and gated session
// each run exactly one hub pump, and no pump survives a policy DELETE with
// no watcher left, a session DELETE, or server Close. Close stops every pump
// before it closes the webhook dispatcher, so no gate evaluates or
// transitions after it returns.
func TestOnePumpPerSession(t *testing.T) {
	waitPumps(t, 0)
	srv := mustServer(t, serverConfig{GateMinInterval: time.Millisecond, WatchMinInterval: 2 * time.Millisecond})
	closed := false
	defer func() {
		if !closed {
			srv.Close()
		}
	}()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	ids := []string{"watched", "gated", "both"}
	for _, id := range ids {
		do(t, srv, "POST", "/v1/sessions", map[string]any{"id": id, "items": 50}, http.StatusCreated)
	}
	doc := `{"rules":[{"name":"too-dirty","metric":"remaining","op":">","value":5}]}`
	putPolicy(t, srv, "gated", doc)
	putPolicy(t, srv, "both", doc)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	watched, stopWatched := watchStream(t, ctx, hs.URL, "/v1/sessions/watched/watch")
	defer stopWatched()
	_, stopBoth := watchStream(t, ctx, hs.URL, "/v1/sessions/both/watch")
	for _, id := range ids {
		ingestTask(t, srv, id, 0, 5, 0)
	}
	waitPumps(t, 3)

	// A gated session with no watcher loses its pump with its policy.
	do(t, srv, "DELETE", "/v1/sessions/gated/policy", nil, http.StatusNoContent)
	waitPumps(t, 2)
	// A watched and gated session keeps its one pump for the gate when its
	// watcher leaves.
	stopBoth()
	time.Sleep(20 * time.Millisecond)
	if n := pumpGoroutines(); n != 2 {
		t.Fatalf("%d pumps after the gated session's watcher left, want 2", n)
	}
	// DELETE ends the watched session's stream and pump.
	do(t, srv, "DELETE", "/v1/sessions/watched", nil, http.StatusNoContent)
	for range watched {
	}
	waitPumps(t, 1)

	// Close with the gate mid-stream: afterwards ingest that would flip the
	// decision evaluates nothing.
	both, ok := srv.engine.Session("both")
	if !ok {
		t.Fatal("session both vanished")
	}
	evaluations := func() float64 {
		v, _ := metrics.Default.Value("dqm_gate_evaluations_total")
		return v
	}
	closed = true
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if n := pumpGoroutines(); n != 0 {
		t.Fatalf("%d pumps running after Close returned", n)
	}
	before := evaluations()
	dirty := []dqm.Vote{{Item: 1, Worker: 0, Dirty: true}, {Item: 1, Worker: 1}, {Item: 1, Worker: 2}}
	for task := 0; task < 10; task++ {
		for i := range dirty {
			dirty[i].Item = 5 + task
		}
		if err := both.AppendVotes(dirty, true); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if after := evaluations(); after != before {
		t.Fatalf("%v gate evaluations after Close returned", after-before)
	}
}

// TestGateSurvivesEvictionRevival: with MaxSessions 1 on a durable engine,
// evicting a gated session retires its pump, and the revived incarnation is
// gated again: its decision reports the revived session's tasks, and an
// action change still reaches the webhook receiver.
func TestGateSurvivesEvictionRevival(t *testing.T) {
	var (
		hookMu sync.Mutex
		hooks  []map[string]any
	)
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var dec map[string]any
		if err := json.NewDecoder(r.Body).Decode(&dec); err != nil {
			t.Errorf("webhook body: %v", err)
		}
		hookMu.Lock()
		hooks = append(hooks, dec)
		hookMu.Unlock()
	}))
	defer hook.Close()

	waitPumps(t, 0)
	srv := mustServer(t, serverConfig{DataDir: t.TempDir(), MaxSessions: 1, GateMinInterval: time.Millisecond})
	defer srv.Close()
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "a", "items": 100}, http.StatusCreated)
	putPolicy(t, srv, "a", `{"rules":[{"name":"too-dirty","metric":"remaining","op":">","value":10}],
		"webhook":{"url":"`+hook.URL+`"}}`)
	for task := 0; task < 2; task++ {
		ingestTask(t, srv, "a", task*5, 5, 0)
	}
	waitPumps(t, 1)

	// Creating "b" evicts "a" and its pump.
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "b", "items": 10}, http.StatusCreated)
	waitPumps(t, 0)

	// Ingest revives "a" (evicting "b"); minority-dirty tasks trip the rule.
	for task := 2; task < 10; task++ {
		ingestTask(t, srv, "a", task*5, 5, 1)
	}
	// The trailing evaluation brings the decision to the revived
	// incarnation's last task.
	deadline := time.Now().Add(5 * time.Second)
	for dec := waitGateAction(t, srv, "a", "quarantine"); dec["tasks"].(float64) != 10; dec = gateDecision(t, srv, "a") {
		if time.Now().After(deadline) {
			t.Fatalf("revived gate decision reports %v tasks, want 10", dec["tasks"])
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitPumps(t, 1)
	for {
		hookMu.Lock()
		n := len(hooks)
		var last map[string]any
		if n > 0 {
			last = hooks[n-1]
		}
		hookMu.Unlock()
		if last != nil && last["session"] == "a" && last["action"] == "quarantine" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the revived gate's transition never reached the receiver (%d POSTs)", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
