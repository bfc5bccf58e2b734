package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"dqm"
)

// do issues one JSON request against the server and decodes the response.
func do(t *testing.T, srv http.Handler, method, path string, body any, wantStatus int) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("%s %s = %d, want %d (body %s)", method, path, rec.Code, wantStatus, rec.Body.String())
	}
	if rec.Body.Len() == 0 {
		return nil
	}
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s %s: bad response JSON: %v (%s)", method, path, err, rec.Body.String())
	}
	return out
}

func TestHealthAndEstimators(t *testing.T) {
	srv := mustServer(t, serverConfig{})
	h := do(t, srv, "GET", "/healthz", nil, http.StatusOK)
	if h["status"] != "ok" {
		t.Fatalf("health = %v", h)
	}
	e := do(t, srv, "GET", "/v1/estimators", nil, http.StatusOK)
	names, _ := e["estimators"].([]any)
	if len(names) < 5 {
		t.Fatalf("estimators = %v", e)
	}
}

func TestSessionLifecycleOverHTTP(t *testing.T) {
	srv := mustServer(t, serverConfig{})

	// Generated id.
	created := do(t, srv, "POST", "/v1/sessions", map[string]any{"items": 10}, http.StatusCreated)
	genID, _ := created["id"].(string)
	if genID == "" {
		t.Fatalf("no id in %v", created)
	}
	// Explicit id, duplicate, and validation failures.
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "orders", "items": 20}, http.StatusCreated)
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "orders", "items": 20}, http.StatusConflict)
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "bad", "items": 0}, http.StatusBadRequest)
	do(t, srv, "POST", "/v1/sessions", map[string]any{
		"id": "bad", "items": 5, "config": map[string]any{"estimators": []string{"NOPE"}},
	}, http.StatusBadRequest)
	do(t, srv, "POST", "/v1/sessions", map[string]any{
		"id": "bad", "items": 5, "config": map[string]any{"tie_policy": "coin-toss"},
	}, http.StatusBadRequest)

	list := do(t, srv, "GET", "/v1/sessions", nil, http.StatusOK)
	if got := list["sessions"].([]any); len(got) != 2 {
		t.Fatalf("sessions = %v", got)
	}

	info := do(t, srv, "GET", "/v1/sessions/orders", nil, http.StatusOK)
	if info["items"].(float64) != 20 || info["votes"].(float64) != 0 {
		t.Fatalf("info = %v", info)
	}
	do(t, srv, "GET", "/v1/sessions/nope", nil, http.StatusNotFound)

	do(t, srv, "DELETE", "/v1/sessions/orders", nil, http.StatusNoContent)
	do(t, srv, "DELETE", "/v1/sessions/orders", nil, http.StatusNotFound)
}

// TestIngestMatchesRecorder feeds the same stream over HTTP (both wire
// forms) and directly into a Recorder; the served estimates must be
// identical.
func TestIngestMatchesRecorder(t *testing.T) {
	srv := mustServer(t, serverConfig{})
	const n = 40
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "a", "items": n}, http.StatusCreated)
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "b", "items": n}, http.StatusCreated)
	rec := dqm.NewRecorder(n, dqm.Defaults())

	var entries []map[string]any
	for task := 0; task < 25; task++ {
		var batch []map[string]any
		for i := 0; i < 8; i++ {
			item := (task*5 + i) % n
			dirty := (task+i)%3 != 0
			rec.Record(item, task%6, dirty)
			batch = append(batch, map[string]any{"item": item, "worker": task % 6, "dirty": dirty})
			entries = append(entries, map[string]any{"task": task, "item": item, "worker": task % 6, "dirty": dirty})
		}
		rec.EndTask()
		do(t, srv, "POST", "/v1/sessions/a/votes",
			map[string]any{"votes": batch, "end_task": true}, http.StatusOK)
	}
	// Session b ingests the whole log in one request via the entries form.
	resp := do(t, srv, "POST", "/v1/sessions/b/votes",
		map[string]any{"entries": entries}, http.StatusOK)
	if resp["tasks_ended"].(float64) != 25 {
		t.Fatalf("entries ingest = %v", resp)
	}

	want := rec.Estimates()
	for _, id := range []string{"a", "b"} {
		got := do(t, srv, "GET", "/v1/sessions/"+id+"/estimates", nil, http.StatusOK)
		if got["nominal"].(float64) != want.Nominal ||
			got["voting"].(float64) != want.Voting ||
			got["chao92"].(float64) != want.Chao92 ||
			got["v_chao92"].(float64) != want.VChao92 ||
			got["switch"].(map[string]any)["total"].(float64) != want.Switch.Total ||
			got["remaining"].(float64) != want.Remaining() {
			t.Fatalf("session %s estimates %v != recorder %+v", id, got, want)
		}
	}
}

func TestIngestValidation(t *testing.T) {
	srv := mustServer(t, serverConfig{MaxBatch: 10})
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "s", "items": 5}, http.StatusCreated)

	do(t, srv, "POST", "/v1/sessions/s/votes", map[string]any{}, http.StatusBadRequest)
	do(t, srv, "POST", "/v1/sessions/s/votes", map[string]any{
		"votes":   []map[string]any{{"item": 0, "worker": 0, "dirty": true}},
		"entries": []map[string]any{{"task": 0, "item": 0, "worker": 0, "dirty": true}},
	}, http.StatusBadRequest)
	do(t, srv, "POST", "/v1/sessions/s/votes", map[string]any{
		"votes": []map[string]any{{"item": 99, "worker": 0, "dirty": true}}, "end_task": true,
	}, http.StatusBadRequest)
	big := make([]map[string]any, 11)
	for i := range big {
		big[i] = map[string]any{"item": 0, "worker": i, "dirty": true}
	}
	do(t, srv, "POST", "/v1/sessions/s/votes", map[string]any{"votes": big, "end_task": true},
		http.StatusRequestEntityTooLarge)
	// A lone end_task with no votes is a valid (empty-task) boundary.
	do(t, srv, "POST", "/v1/sessions/s/votes", map[string]any{"end_task": true}, http.StatusOK)
	do(t, srv, "POST", "/v1/sessions/nope/votes", map[string]any{"end_task": true}, http.StatusNotFound)
	// Unknown fields are rejected (strict decoding).
	do(t, srv, "POST", "/v1/sessions/s/votes", map[string]any{"votez": 1}, http.StatusBadRequest)
}

func TestEstimatesWithCI(t *testing.T) {
	srv := mustServer(t, serverConfig{})
	do(t, srv, "POST", "/v1/sessions", map[string]any{
		"id": "s", "items": 50, "config": map[string]any{"track_confidence": true},
	}, http.StatusCreated)
	for task := 0; task < 20; task++ {
		var batch []map[string]any
		for i := 0; i < 10; i++ {
			batch = append(batch, map[string]any{"item": (task + i*3) % 50, "worker": task, "dirty": i%2 == 0})
		}
		do(t, srv, "POST", "/v1/sessions/s/votes", map[string]any{"votes": batch, "end_task": true}, http.StatusOK)
	}
	got := do(t, srv, "GET", "/v1/sessions/s/estimates?ci=0.9&replicates=50", nil, http.StatusOK)
	ci, ok := got["switch_ci"].(map[string]any)
	if !ok || ci["level"].(float64) != 0.9 || ci["lo"].(float64) > ci["hi"].(float64) {
		t.Fatalf("switch_ci = %v", got["switch_ci"])
	}
	do(t, srv, "GET", "/v1/sessions/s/estimates?ci=bogus", nil, http.StatusBadRequest)
	do(t, srv, "GET", "/v1/sessions/s/estimates?ci=0.9&replicates=20000", nil, http.StatusBadRequest)
	// Without ledger tracking the CI request fails cleanly.
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "noci", "items": 5}, http.StatusCreated)
	do(t, srv, "POST", "/v1/sessions/noci/votes", map[string]any{
		"votes": []map[string]any{{"item": 0, "worker": 0, "dirty": true}}, "end_task": true,
	}, http.StatusOK)
	do(t, srv, "GET", "/v1/sessions/noci/estimates?ci=0.9", nil, http.StatusBadRequest)
}

// TestRollbackByReplayOverHTTP: the snapshot routes and their metrics are
// gone, and a rollback is DELETE, create and a re-send of the trusted prefix,
// which reproduces the estimates at the end of that prefix exactly.
func TestRollbackByReplayOverHTTP(t *testing.T) {
	srv := mustServer(t, serverConfig{})
	feed := func(from, to int) {
		for task := from; task < to; task++ {
			var batch []map[string]any
			for i := 0; i < 6; i++ {
				batch = append(batch, map[string]any{"item": (task*4 + i) % 30, "worker": task % 4, "dirty": i%3 != 0})
			}
			do(t, srv, "POST", "/v1/sessions/s/votes", map[string]any{"votes": batch, "end_task": true}, http.StatusOK)
		}
	}
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "s", "items": 30}, http.StatusCreated)
	feed(0, 15)
	trusted := do(t, srv, "GET", "/v1/sessions/s/estimates", nil, http.StatusOK)
	feed(15, 30)
	if after := do(t, srv, "GET", "/v1/sessions/s/estimates", nil, http.StatusOK); reflect.DeepEqual(after, trusted) {
		t.Fatal("later ingest did not move estimates; test is vacuous")
	}

	for _, r := range []struct{ method, path, body string }{
		{"POST", "/v1/sessions/s/snapshots", ""},
		{"GET", "/v1/sessions/s/snapshots", ""},
		{"POST", "/v1/sessions/s/restore", `{"snapshot_id":"snap-1"}`},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(r.method, r.path, strings.NewReader(r.body)))
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", r.method, r.path, rec.Code)
		}
	}
	body := scrape(t, srv)
	for _, name := range []string{"dqm_engine_snapshots_total", "dqm_engine_restores_total", "dqm_serve_snapshots"} {
		if strings.Contains(body, name) {
			t.Errorf("/metrics still exposes %s", name)
		}
	}

	do(t, srv, "DELETE", "/v1/sessions/s", nil, http.StatusNoContent)
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "s", "items": 30}, http.StatusCreated)
	feed(0, 15)
	if got := do(t, srv, "GET", "/v1/sessions/s/estimates", nil, http.StatusOK); !reflect.DeepEqual(got, trusted) {
		t.Fatalf("estimates after replay of the trusted prefix differ:\n got %v\nwant %v", got, trusted)
	}
}

func TestMaxSessionsEviction(t *testing.T) {
	srv := mustServer(t, serverConfig{MaxSessions: 2})
	for i := 0; i < 3; i++ {
		do(t, srv, "POST", "/v1/sessions", map[string]any{"id": fmt.Sprintf("s%d", i), "items": 5}, http.StatusCreated)
	}
	h := do(t, srv, "GET", "/healthz", nil, http.StatusOK)
	if h["sessions"].(float64) != 2 || h["evictions"].(float64) != 1 {
		t.Fatalf("health after eviction = %v", h)
	}
}

// mustServer builds a server or fails the test, and closes it when the test
// ends: a gate or watcher left running would outlive its test (Close is
// idempotent, so a test may close it itself too).
func mustServer(t *testing.T, cfg serverConfig) *server {
	t.Helper()
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestPartialEntriesIngestReportsApplied: entries are applied per task; a bad
// entry mid-batch must report exactly which tasks/votes landed so the client
// can resume, rather than a bare error over silently mutated state.
func TestPartialEntriesIngestReportsApplied(t *testing.T) {
	srv := mustServer(t, serverConfig{})
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "p", "items": 10}, http.StatusCreated)
	entries := []map[string]any{
		{"task": 0, "item": 1, "worker": 0, "dirty": true},
		{"task": 0, "item": 2, "worker": 1, "dirty": false},
		{"task": 1, "item": 3, "worker": 0, "dirty": true},
		{"task": 2, "item": 99, "worker": 0, "dirty": true}, // out of range
		{"task": 2, "item": 4, "worker": 1, "dirty": false},
	}
	out := do(t, srv, "POST", "/v1/sessions/p/votes", map[string]any{"entries": entries}, http.StatusBadRequest)
	env, _ := out["error"].(map[string]any)
	if env == nil {
		t.Fatalf("no error envelope in %v", out)
	}
	if code, _ := env["code"].(string); code != "invalid_batch" {
		t.Fatalf("code = %q, want invalid_batch", code)
	}
	details, _ := env["details"].(map[string]any)
	if got := details["ingested"].(float64); got != 3 {
		t.Fatalf("ingested = %v, want 3 (tasks 0 and 1 applied)", details["ingested"])
	}
	if got := details["tasks_ended"].(float64); got != 2 {
		t.Fatalf("tasks_ended = %v, want 2", details["tasks_ended"])
	}
	if got := details["total_votes"].(float64); got != 3 {
		t.Fatalf("total_votes = %v, want 3", details["total_votes"])
	}
	// The bad task was atomically rejected: a follow-up estimate sees only
	// the applied tasks.
	est := do(t, srv, "GET", "/v1/sessions/p/estimates", nil, http.StatusOK)
	if got := est["votes"].(float64); got != 3 {
		t.Fatalf("votes after partial ingest = %v, want 3", got)
	}
}

// TestDurableServerRestartRecovers: a server over a data dir is killed (its
// engine closed) and rebuilt; sessions and estimates must survive.
func TestDurableServerRestartRecovers(t *testing.T) {
	dir := t.TempDir()
	cfg := serverConfig{DataDir: dir, Fsync: dqm.FsyncNever}
	srv := mustServer(t, cfg)
	hc := do(t, srv, "GET", "/healthz", nil, http.StatusOK)
	if hc["durable"] != true {
		t.Fatalf("healthz durable = %v, want true", hc["durable"])
	}
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "persist", "items": 25}, http.StatusCreated)
	for task := 0; task < 12; task++ {
		votes := []map[string]any{}
		for k := 0; k < 4; k++ {
			votes = append(votes, map[string]any{"item": (task*5 + k) % 25, "worker": k, "dirty": (task+k)%2 == 0})
		}
		do(t, srv, "POST", "/v1/sessions/persist/votes", map[string]any{"votes": votes, "end_task": true}, http.StatusOK)
	}
	want := do(t, srv, "GET", "/v1/sessions/persist/estimates", nil, http.StatusOK)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := mustServer(t, cfg)
	defer srv2.Close()
	got := do(t, srv2, "GET", "/v1/sessions/persist/estimates", nil, http.StatusOK)
	// The mutation version is a session-local counter, not part of estimator
	// state: recovery rebases it on the replayed stream (never lower than the
	// pre-crash value, so watch cursors stay safe) — exclude it from the
	// bit-identity comparison.
	delete(got, "version")
	delete(want, "version")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("estimates after restart differ:\n got %v\nwant %v", got, want)
	}
	// Delete purges the journal: after another restart the session is gone.
	do(t, srv2, "DELETE", "/v1/sessions/persist", nil, http.StatusNoContent)
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	srv3 := mustServer(t, cfg)
	defer srv3.Close()
	do(t, srv3, "GET", "/v1/sessions/persist", nil, http.StatusNotFound)
}

// TestDurableEvictionRevivesOverHTTP: with MaxSessions=1 the older session is
// evicted from memory but not from disk; touching it revives it.
func TestDurableEvictionRevivesOverHTTP(t *testing.T) {
	srv := mustServer(t, serverConfig{DataDir: t.TempDir(), Fsync: dqm.FsyncNever, MaxSessions: 1})
	defer srv.Close()
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "old", "items": 5}, http.StatusCreated)
	do(t, srv, "POST", "/v1/sessions/old/votes",
		map[string]any{"votes": []map[string]any{{"item": 1, "worker": 0, "dirty": true}}, "end_task": true}, http.StatusOK)
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "new", "items": 5}, http.StatusCreated)
	// "old" was evicted from memory; the estimates endpoint revives it.
	out := do(t, srv, "GET", "/v1/sessions/old/estimates", nil, http.StatusOK)
	if got := out["votes"].(float64); got != 1 {
		t.Fatalf("revived session votes = %v, want 1", got)
	}
	// Both ids stay listed while evicted or live.
	ids := do(t, srv, "GET", "/v1/sessions", nil, http.StatusOK)["sessions"].([]any)
	if len(ids) != 2 {
		t.Fatalf("sessions = %v, want 2 ids", ids)
	}
}

// TestJournalFaultMapsTo503: infrastructure faults (closed/broken journal)
// must not masquerade as client errors.
func TestJournalFaultMapsTo503(t *testing.T) {
	srv := mustServer(t, serverConfig{DataDir: t.TempDir(), Fsync: dqm.FsyncNever, MaxSessions: 1})
	defer srv.Close()
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "j", "items": 5}, http.StatusCreated)
	sess, ok := srv.engine.Session("j")
	if !ok {
		t.Fatal("session missing")
	}
	// Evicting "j" closes its journal; the stale handle's next append is a
	// journal fault. (The HTTP path would transparently revive the session,
	// so exercise the classification through the handle + ingestStatus.)
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "evictor", "items": 5}, http.StatusCreated)
	err := sess.AppendVotes([]dqm.Vote{{Item: 1, Worker: 0, Dirty: true}}, true)
	if err == nil {
		t.Fatal("append on evicted handle succeeded")
	}
	if !dqm.IsJournalError(err) {
		t.Fatalf("err %v not classified as journal error", err)
	}
	if got := ingestStatus(err); got != http.StatusServiceUnavailable {
		t.Fatalf("ingestStatus = %d, want 503", got)
	}
	if got := ingestStatus(fmt.Errorf("engine: vote 0: item 9 outside population")); got != http.StatusBadRequest {
		t.Fatalf("validation error status = %d, want 400", got)
	}
}

// TestAutoSessionIDsSurviveRestart: the auto-id counter is in-memory and
// restarts at zero; on a durable server it must be seeded past the journaled
// "session-N" ids recovered from the previous run, or every POST without an
// id would 409 against them. A manually taken "session-N" id must also be
// skipped, not surfaced as a conflict the client cannot act on.
func TestAutoSessionIDsSurviveRestart(t *testing.T) {
	cfg := serverConfig{DataDir: t.TempDir(), Fsync: dqm.FsyncNever}
	srv := mustServer(t, cfg)
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		out := do(t, srv, "POST", "/v1/sessions", map[string]any{"items": 5}, http.StatusCreated)
		seen[out["id"].(string)] = true
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := mustServer(t, cfg)
	defer srv2.Close()
	for i := 0; i < 3; i++ {
		out := do(t, srv2, "POST", "/v1/sessions", map[string]any{"items": 5}, http.StatusCreated)
		id := out["id"].(string)
		if seen[id] {
			t.Fatalf("auto id %q reused after restart", id)
		}
		seen[id] = true
	}
	// Occupy the next auto id by hand; auto creation must skip past it.
	next := fmt.Sprintf("session-%d", srv2.sessionSeq.Load()+1)
	do(t, srv2, "POST", "/v1/sessions", map[string]any{"id": next, "items": 5}, http.StatusCreated)
	out := do(t, srv2, "POST", "/v1/sessions", map[string]any{"items": 5}, http.StatusCreated)
	if id := out["id"].(string); id == next || seen[id] {
		t.Fatalf("auto id %q collided with taken ids", id)
	}
}
