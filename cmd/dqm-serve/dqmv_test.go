package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"dqm"
	"dqm/internal/votelog"
)

// doRaw issues one request with an explicit body and Content-Type and decodes
// the JSON response (the binary-ingest counterpart of do).
func doRaw(t *testing.T, srv http.Handler, method, path, contentType string, body []byte, wantStatus int) map[string]any {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("%s %s (%s) = %d, want %d (body %s)", method, path, contentType, rec.Code, wantStatus, rec.Body.String())
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

// encodeDQMV renders entries in the binary vote-log format.
func encodeDQMV(t *testing.T, entries []votelog.Entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := votelog.WriteBinary(&buf, entries); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestVotesContentTypeDispatch pins the 415 contract: the votes endpoint
// accepts JSON and application/x-dqmv, names both in the error for anything
// else, and rejects a malformed Content-Type header outright.
func TestVotesContentTypeDispatch(t *testing.T) {
	srv := mustServer(t, serverConfig{})
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "ct", "items": 5}, http.StatusCreated)

	jsonBody := []byte(`{"votes":[{"item":1,"worker":0,"dirty":true}],"end_task":true}`)
	// Explicit JSON, JSON with parameters, and no header at all are the JSON path.
	doRaw(t, srv, "POST", "/v1/sessions/ct/votes", "application/json", jsonBody, http.StatusOK)
	doRaw(t, srv, "POST", "/v1/sessions/ct/votes", "application/json; charset=utf-8", jsonBody, http.StatusOK)
	doRaw(t, srv, "POST", "/v1/sessions/ct/votes", "", jsonBody, http.StatusOK)

	for _, ct := range []string{"text/csv", "application/octet-stream", "multipart/form-data; boundary=x"} {
		out := doRaw(t, srv, "POST", "/v1/sessions/ct/votes", ct, jsonBody, http.StatusUnsupportedMediaType)
		env, _ := out["error"].(map[string]any)
		if code, _ := env["code"].(string); code != "unsupported_media_type" {
			t.Fatalf("415 code for %q = %q, want unsupported_media_type", ct, code)
		}
		msg, _ := env["message"].(string)
		if !bytes.Contains([]byte(msg), []byte("application/json")) || !bytes.Contains([]byte(msg), []byte(contentTypeDQMV)) {
			t.Fatalf("415 body for %q does not name the accepted encodings: %v", ct, out)
		}
	}
	// A header mime.ParseMediaType cannot parse is also a 415, not a guess.
	doRaw(t, srv, "POST", "/v1/sessions/ct/votes", ";;not-a-type", jsonBody, http.StatusUnsupportedMediaType)

	// Binary content type with a non-DQMV body: 400 from the format check.
	doRaw(t, srv, "POST", "/v1/sessions/ct/votes", contentTypeDQMV, []byte("not dqmv"), http.StatusBadRequest)
	// Valid magic but no votes: empty batch.
	doRaw(t, srv, "POST", "/v1/sessions/ct/votes", contentTypeDQMV, votelog.BinaryMagic(), http.StatusBadRequest)
	// Unknown session still 404s before touching the body.
	doRaw(t, srv, "POST", "/v1/sessions/nope/votes", contentTypeDQMV, votelog.BinaryMagic(), http.StatusNotFound)
}

// TestDQMVIngestMatchesJSONEstimates is the acceptance check: the same vote
// log ingested as application/x-dqmv and as JSON entries must produce
// byte-identical estimates (same task boundaries, same estimator state).
func TestDQMVIngestMatchesJSONEstimates(t *testing.T) {
	srv := mustServer(t, serverConfig{})
	const n = 40
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "bin", "items": n}, http.StatusCreated)
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "json", "items": n}, http.StatusCreated)

	var entries []votelog.Entry
	var jsonEntries []map[string]any
	for task := 0; task < 25; task++ {
		for i := 0; i < 8; i++ {
			item := (task*5 + i) % n
			dirty := (task+i)%3 != 0
			entries = append(entries, votelog.Entry{Task: task, Item: item, Worker: task % 6, Dirty: dirty})
			jsonEntries = append(jsonEntries, map[string]any{"task": task, "item": item, "worker": task % 6, "dirty": dirty})
		}
	}

	out := doRaw(t, srv, "POST", "/v1/sessions/bin/votes", contentTypeDQMV, encodeDQMV(t, entries), http.StatusOK)
	if out["ingested"].(float64) != float64(len(entries)) || out["tasks_ended"].(float64) != 25 {
		t.Fatalf("binary ingest = %v", out)
	}
	do(t, srv, "POST", "/v1/sessions/json/votes", map[string]any{"entries": jsonEntries}, http.StatusOK)

	got := do(t, srv, "GET", "/v1/sessions/bin/estimates", nil, http.StatusOK)
	want := do(t, srv, "GET", "/v1/sessions/json/estimates", nil, http.StatusOK)
	// The mutation version is a session-local counter, not estimator state;
	// the two ingest paths are allowed to bump it differently.
	delete(got, "version")
	delete(want, "version")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("binary-ingest estimates differ from JSON path:\n got %v\nwant %v", got, want)
	}
}

// TestDQMVIngestValidation: the binary path enforces the same request limits
// as JSON — MaxBatch on the decoded vote count, MaxBodyBytes on the wire, and
// population range checks with per-task partial-ingest reporting.
func TestDQMVIngestValidation(t *testing.T) {
	srv := mustServer(t, serverConfig{MaxBatch: 10, MaxBodyBytes: 256})
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "v", "items": 5}, http.StatusCreated)

	big := make([]votelog.Entry, 11)
	for i := range big {
		big[i] = votelog.Entry{Task: 0, Item: i % 5, Worker: i, Dirty: true}
	}
	doRaw(t, srv, "POST", "/v1/sessions/v/votes", contentTypeDQMV, encodeDQMV(t, big),
		http.StatusRequestEntityTooLarge)

	huge := make([]votelog.Entry, 200)
	for i := range huge {
		huge[i] = votelog.Entry{Task: 0, Item: i % 5, Worker: i, Dirty: true}
	}
	doRaw(t, srv, "POST", "/v1/sessions/v/votes", contentTypeDQMV, encodeDQMV(t, huge),
		http.StatusRequestEntityTooLarge)

	// Tasks 0 and 1 land; task 2's first vote is out of population, so task 2
	// is atomically rejected and the response reports what applied.
	partial := []votelog.Entry{
		{Task: 0, Item: 1, Worker: 0, Dirty: true},
		{Task: 0, Item: 2, Worker: 1, Dirty: false},
		{Task: 1, Item: 3, Worker: 0, Dirty: true},
		{Task: 2, Item: 4, Worker: 0, Dirty: true}, // item 4 valid, but…
	}
	body := encodeDQMV(t, partial)
	// …rewrite task 2's vote to item 9 (out of range) by re-encoding with a bad
	// item through the columnar builder: append a fresh out-of-range vote.
	body = append(body, votelog.AppendBinaryVote(nil, 9, 0, true)...)
	out := doRaw(t, srv, "POST", "/v1/sessions/v/votes", contentTypeDQMV, body, http.StatusBadRequest)
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
	est := do(t, srv, "GET", "/v1/sessions/v/estimates", nil, http.StatusOK)
	if got := est["votes"].(float64); got != 3 {
		t.Fatalf("votes after partial binary ingest = %v, want 3", got)
	}
}

// TestDQMVDurableRestartRecovers: binary-ingested votes ride the columnar WAL
// record; a restart must rebuild bit-identical estimates from the journal.
func TestDQMVDurableRestartRecovers(t *testing.T) {
	cfg := serverConfig{DataDir: t.TempDir(), Fsync: dqm.FsyncNever}
	srv := mustServer(t, cfg)
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "d", "items": 25}, http.StatusCreated)
	var entries []votelog.Entry
	for task := 0; task < 12; task++ {
		for k := 0; k < 4; k++ {
			entries = append(entries, votelog.Entry{Task: task, Item: (task*5 + k) % 25, Worker: k, Dirty: (task+k)%2 == 0})
		}
	}
	doRaw(t, srv, "POST", "/v1/sessions/d/votes", contentTypeDQMV, encodeDQMV(t, entries), http.StatusOK)
	want := do(t, srv, "GET", "/v1/sessions/d/estimates", nil, http.StatusOK)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := mustServer(t, cfg)
	defer srv2.Close()
	got := do(t, srv2, "GET", "/v1/sessions/d/estimates", nil, http.StatusOK)
	delete(got, "version")
	delete(want, "version")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("estimates after restart differ:\n got %v\nwant %v", got, want)
	}
}

// TestJournalFaultDQMVAppliesNothing: a multi-task DQMV body whose journal
// fails answers 503 journal_unavailable with ingested 0, because the request
// journals every task before it applies any. The HTTP route would revive an
// evicted session, so the handler is driven with the stale handle directly.
func TestJournalFaultDQMVAppliesNothing(t *testing.T) {
	srv := mustServer(t, serverConfig{DataDir: t.TempDir(), Fsync: dqm.FsyncNever, MaxSessions: 1})
	defer srv.Close()
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "j", "items": 5}, http.StatusCreated)
	sess, ok := srv.engine.Session("j")
	if !ok {
		t.Fatal("session missing")
	}
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "evictor", "items": 5}, http.StatusCreated)
	body := encodeDQMV(t, []votelog.Entry{
		{Task: 0, Item: 1, Worker: 0, Dirty: true},
		{Task: 1, Item: 2, Worker: 1},
		{Task: 2, Item: 3, Worker: 0, Dirty: true},
	})
	req := httptest.NewRequest("POST", "/v1/sessions/j/votes", bytes.NewReader(body))
	req.Header.Set("Content-Type", contentTypeDQMV)
	rec := httptest.NewRecorder()
	srv.handleAppendDQMV(rec, req, sess)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (body %s)", rec.Code, rec.Body.String())
	}
	var out struct {
		Error struct {
			Code    string         `json:"code"`
			Details map[string]any `json:"details"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Error.Code != "journal_unavailable" {
		t.Fatalf("code = %q, want journal_unavailable", out.Error.Code)
	}
	if out.Error.Details["ingested"] != 0.0 || out.Error.Details["tasks_ended"] != 0.0 {
		t.Fatalf("details = %v, want ingested 0 and tasks_ended 0", out.Error.Details)
	}
	if sess.TotalVotes() != 0 || sess.Tasks() != 0 {
		t.Fatalf("session holds %d votes in %d tasks after a failed request, want none", sess.TotalVotes(), sess.Tasks())
	}
}
