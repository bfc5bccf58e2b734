package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dqm"
)

// errCode issues one request and returns the envelope's code, asserting the
// status and that the body is a well-formed v1 error envelope.
func errCode(t *testing.T, srv http.Handler, method, path, contentType, body string, wantStatus int) string {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("%s %s = %d, want %d (body %s)", method, path, rec.Code, wantStatus, rec.Body.String())
	}
	var env struct {
		Error struct {
			Code    string         `json:"code"`
			Message string         `json:"message"`
			Details map[string]any `json:"details"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("%s %s: response is not an error envelope: %v (%s)", method, path, err, rec.Body.String())
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("%s %s: envelope missing code or message: %s", method, path, rec.Body.String())
	}
	return env.Error.Code
}

// TestErrorEnvelopeGolden pins the (status, code) contract of every route's
// failure paths: all error responses carry the v1 envelope, codes are stable
// identifiers clients may branch on, statuses classify coarsely.
func TestErrorEnvelopeGolden(t *testing.T) {
	srv := mustServer(t, serverConfig{MaxBatch: 10})
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "g", "items": 5}, http.StatusCreated)
	do(t, srv, "POST", "/v1/sessions", map[string]any{
		"id": "gw", "items": 5,
		"config": map[string]any{"window": map[string]any{"size": 2, "decay_alpha": 0.5}},
	}, http.StatusCreated)

	validPolicy := `{"rules":[{"name":"r","metric":"remaining","op":">","value":1}]}`
	cases := []struct {
		name       string
		method     string
		path       string
		ct         string
		body       string
		wantStatus int
		wantCode   string
	}{
		// POST /v1/sessions
		{"create bad json", "POST", "/v1/sessions", "", `{`, 400, "invalid_body"},
		{"create unknown field", "POST", "/v1/sessions", "", `{"bogus":1}`, 400, "invalid_body"},
		{"create bad config", "POST", "/v1/sessions", "", `{"id":"x","items":5,"config":{"tie_policy":"coin-toss"}}`, 400, "invalid_argument"},
		{"create zero items", "POST", "/v1/sessions", "", `{"id":"x","items":0}`, 400, "invalid_argument"},
		{"create items over cap", "POST", "/v1/sessions", "", `{"id":"x","items":2000000000}`, 400, "invalid_argument"},
		{"create duplicate", "POST", "/v1/sessions", "", `{"id":"g","items":5}`, 409, "session_exists"},
		// GET /v1/sessions
		{"list bad limit", "GET", "/v1/sessions?limit=nope", "", "", 400, "invalid_argument"},
		{"list negative limit", "GET", "/v1/sessions?limit=-3", "", "", 400, "invalid_argument"},
		// GET/DELETE /v1/sessions/{id}
		{"info missing", "GET", "/v1/sessions/nope", "", "", 404, "session_not_found"},
		{"delete missing", "DELETE", "/v1/sessions/nope", "", "", 404, "session_not_found"},
		// POST votes
		{"votes missing session", "POST", "/v1/sessions/nope/votes", "", `{"votes":[]}`, 404, "session_not_found"},
		{"votes bad json", "POST", "/v1/sessions/g/votes", "", `{`, 400, "invalid_body"},
		{"votes both forms", "POST", "/v1/sessions/g/votes", "", `{"votes":[{"item":1,"worker":0,"dirty":true}],"entries":[{"task":0,"item":1,"worker":0,"dirty":true}]}`, 400, "invalid_batch"},
		{"votes empty batch", "POST", "/v1/sessions/g/votes", "", `{"votes":[]}`, 400, "invalid_batch"},
		{"votes batch too large", "POST", "/v1/sessions/g/votes", "", `{"votes":[` + strings.Repeat(`{"item":1,"worker":0,"dirty":true},`, 10) + `{"item":1,"worker":0,"dirty":true}]}`, 413, "batch_too_large"},
		{"votes out of range", "POST", "/v1/sessions/g/votes", "", `{"votes":[{"item":99,"worker":0,"dirty":true}],"end_task":true}`, 400, "invalid_batch"},
		{"votes bad media type", "POST", "/v1/sessions/g/votes", "text/csv", "a,b", 415, "unsupported_media_type"},
		{"votes malformed media type", "POST", "/v1/sessions/g/votes", ";;nope", "{}", 415, "unsupported_media_type"},
		{"votes bad dqmv", "POST", "/v1/sessions/g/votes", "application/x-dqmv", "not dqmv", 400, "invalid_batch"},
		// GET estimates
		{"estimates missing session", "GET", "/v1/sessions/nope/estimates", "", "", 404, "session_not_found"},
		{"estimates bad window", "GET", "/v1/sessions/g/estimates?window=sideways", "", "", 400, "invalid_argument"},
		{"estimates windowless session", "GET", "/v1/sessions/g/estimates?window=current", "", "", 409, "window_not_ready"},
		{"estimates window before data", "GET", "/v1/sessions/gw/estimates?window=last", "", "", 409, "window_not_ready"},
		{"estimates ci plus window", "GET", "/v1/sessions/gw/estimates?ci=0.95&window=current", "", "", 400, "invalid_argument"},
		{"estimates bad ci", "GET", "/v1/sessions/g/estimates?ci=high", "", "", 400, "invalid_argument"},
		{"estimates bad replicates", "GET", "/v1/sessions/g/estimates?ci=0.95&replicates=many", "", "", 400, "invalid_argument"},
		{"estimates replicates over cap", "GET", "/v1/sessions/g/estimates?ci=0.95&replicates=99999", "", "", 400, "invalid_argument"},
		// GET watch (pre-stream validation failures)
		{"watch missing session", "GET", "/v1/sessions/nope/watch", "", "", 404, "session_not_found"},
		{"watch bad window", "GET", "/v1/sessions/g/watch?window=sideways", "", "", 400, "invalid_argument"},
		{"watch windowless session", "GET", "/v1/sessions/g/watch?window=current", "", "", 409, "window_not_ready"},
		{"watch bad min_interval", "GET", "/v1/sessions/g/watch?min_interval=fast", "", "", 400, "invalid_argument"},
		{"watch bad cursor", "GET", "/v1/sessions/g/watch?cursor=latest", "", "", 400, "invalid_argument"},
		// POST /v1/estimates:batch
		{"batch empty ids", "POST", "/v1/estimates:batch", "", `{"ids":[]}`, 400, "invalid_argument"},
		{"batch bad window", "POST", "/v1/estimates:batch", "", `{"ids":["g"],"window":"sideways"}`, 400, "invalid_argument"},
		{"batch bad json", "POST", "/v1/estimates:batch", "", `{`, 400, "invalid_body"},
		// Gate and policy
		{"gate missing session", "GET", "/v1/sessions/nope/gate", "", "", 404, "session_not_found"},
		{"gate no policy", "GET", "/v1/sessions/g/gate", "", "", 404, "policy_not_found"},
		{"policy get missing session", "GET", "/v1/sessions/nope/policy", "", "", 404, "session_not_found"},
		{"policy get none", "GET", "/v1/sessions/g/policy", "", "", 404, "policy_not_found"},
		{"policy put missing session", "PUT", "/v1/sessions/nope/policy", "", validPolicy, 404, "session_not_found"},
		{"policy put bad json", "PUT", "/v1/sessions/g/policy", "", `{`, 400, "invalid_policy"},
		{"policy put no rules", "PUT", "/v1/sessions/g/policy", "", `{"rules":[]}`, 400, "invalid_policy"},
		{"policy put bad metric", "PUT", "/v1/sessions/g/policy", "", `{"rules":[{"name":"r","metric":"vibes","op":">","value":1}]}`, 400, "invalid_policy"},
		{"policy delete missing session", "DELETE", "/v1/sessions/nope/policy", "", "", 404, "session_not_found"},
		{"policy delete none", "DELETE", "/v1/sessions/g/policy", "", "", 404, "policy_not_found"},
		// Requests no route matches
		{"unmatched route", "GET", "/v1/nope", "", "", 404, "route_not_found"},
		{"unmatched method", "PATCH", "/v1/sessions/g", "", "{}", 405, "method_not_allowed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code := errCode(t, srv, tc.method, tc.path, tc.ct, tc.body, tc.wantStatus)
			if code != tc.wantCode {
				t.Fatalf("%s %s: code = %q, want %q", tc.method, tc.path, code, tc.wantCode)
			}
		})
	}
}

// TestErrorEnvelopeBodyTooLarge pins the 413 body_too_large code for an
// oversized JSON body (needs its own server with a tiny limit).
func TestErrorEnvelopeBodyTooLarge(t *testing.T) {
	srv := mustServer(t, serverConfig{MaxBodyBytes: 64})
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "s", "items": 5}, http.StatusCreated)
	big := `{"votes":[` + strings.Repeat(`{"item":1,"worker":0,"dirty":true},`, 50) + `{"item":1,"worker":0,"dirty":true}]}`
	if code := errCode(t, srv, "POST", "/v1/sessions/s/votes", "", big, 413); code != "body_too_large" {
		t.Fatalf("code = %q, want body_too_large", code)
	}
	if code := errCode(t, srv, "PUT", "/v1/sessions/s/policy", "", big, 413); code != "body_too_large" {
		t.Fatalf("policy code = %q, want body_too_large", code)
	}
}

// TestListSessionsPagination: limit caps the page, cursor resumes after the
// given id, next_cursor appears exactly when the listing is truncated, and
// ids page out in lexicographic order without duplicates or gaps.
func TestListSessionsPagination(t *testing.T) {
	srv := mustServer(t, serverConfig{})
	want := make([]string, 0, 7)
	for _, id := range []string{"c", "a", "e", "b", "g", "d", "f"} {
		do(t, srv, "POST", "/v1/sessions", map[string]any{"id": id, "items": 3}, http.StatusCreated)
		want = append(want, id)
	}

	// Default limit swallows everything: no next_cursor.
	out := do(t, srv, "GET", "/v1/sessions", nil, http.StatusOK)
	if _, ok := out["next_cursor"]; ok {
		t.Fatalf("next_cursor on untruncated listing: %v", out)
	}
	if got := out["sessions"].([]any); len(got) != 7 || got[0] != "a" || got[6] != "g" {
		t.Fatalf("sessions = %v, want a..g sorted", got)
	}

	// Page through with limit=3 and collect.
	var paged []string
	cursor := ""
	for page := 0; ; page++ {
		path := "/v1/sessions?limit=3"
		if cursor != "" {
			path += "&cursor=" + cursor
		}
		out := do(t, srv, "GET", path, nil, http.StatusOK)
		ids := out["sessions"].([]any)
		for _, id := range ids {
			paged = append(paged, id.(string))
		}
		nc, truncated := out["next_cursor"].(string)
		if !truncated {
			break
		}
		if nc != ids[len(ids)-1].(string) {
			t.Fatalf("next_cursor %q != last id of page %v", nc, ids)
		}
		cursor = nc
		if page > 5 {
			t.Fatal("pagination did not terminate")
		}
	}
	if strings.Join(paged, "") != "abcdefg" {
		t.Fatalf("paged ids = %v", paged)
	}

	// A cursor whose id was deleted still resumes at the right spot.
	do(t, srv, "DELETE", "/v1/sessions/c", nil, http.StatusNoContent)
	out = do(t, srv, "GET", "/v1/sessions?cursor=c", nil, http.StatusOK)
	if got := out["sessions"].([]any); len(got) != 4 || got[0] != "d" {
		t.Fatalf("post-delete cursor resume = %v, want [d e f g]", got)
	}
}

// TestPartialIngestDetailsRoundTrip: the partial-ingest counters ride
// error.details and agree with a client resuming from them.
func TestPartialIngestDetailsRoundTrip(t *testing.T) {
	srv := mustServer(t, serverConfig{})
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "p", "items": 4}, http.StatusCreated)
	body := `{"entries":[
		{"task":0,"item":0,"worker":0,"dirty":true},
		{"task":1,"item":99,"worker":0,"dirty":true}
	]}`
	req := httptest.NewRequest("POST", "/v1/sessions/p/votes", strings.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d (body %s)", rec.Code, rec.Body.String())
	}
	var env errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != codeInvalidBatch {
		t.Fatalf("code = %q", env.Error.Code)
	}
	if got := env.Error.Details["ingested"].(float64); got != 1 {
		t.Fatalf("details.ingested = %v, want 1", got)
	}
	if got := env.Error.Details["tasks_ended"].(float64); got != 1 {
		t.Fatalf("details.tasks_ended = %v, want 1", got)
	}
	// Success responses are unchanged (no envelope).
	out := do(t, srv, "POST", "/v1/sessions/p/votes", map[string]any{
		"votes": []map[string]any{{"item": 1, "worker": 0, "dirty": false}}, "end_task": true,
	}, http.StatusOK)
	if _, ok := out["error"]; ok {
		t.Fatalf("success response carries an error field: %v", out)
	}
	if out["ingested"].(float64) != 1 {
		t.Fatalf("ingest response = %v", out)
	}
}

// TestUnmatchedRequestsUseEnvelope: a request no route pattern matches gets
// the JSON v1 envelope, a 405 keeps the Allow header the mux computes, and
// dqm_http_requests_total counts every such request under the one route label
// "unmatched", never under its path.
func TestUnmatchedRequestsUseEnvelope(t *testing.T) {
	srv := mustServer(t, serverConfig{})
	for _, path := range []string{"/v1/nope", "/v1/sessions/x/snapshots", "/favicon.ico"} {
		if code := errCode(t, srv, "GET", path, "", "", 404); code != "route_not_found" {
			t.Fatalf("GET %s: code = %q", path, code)
		}
	}
	for _, r := range []struct{ method, path, allow string }{
		{"PATCH", "/v1/sessions/x", "DELETE, GET, HEAD"},
		{"PUT", "/v1/sessions", "GET, HEAD, POST"},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(r.method, r.path, strings.NewReader("{}")))
		if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != r.allow ||
			!strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
			t.Fatalf("%s %s = %d, Allow %q, Content-Type %q; want 405, Allow %q, JSON",
				r.method, r.path, rec.Code, rec.Header().Get("Allow"), rec.Header().Get("Content-Type"), r.allow)
		}
		if code := errCode(t, srv, r.method, r.path, "", "{}", 405); code != "method_not_allowed" {
			t.Fatalf("%s %s: code = %q", r.method, r.path, code)
		}
	}
	body := scrape(t, srv)
	for _, want := range []string{
		`dqm_http_requests_total{code="404",route="unmatched"} 3`,
		`dqm_http_requests_total{code="405",route="unmatched"} 4`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
	if strings.Contains(body, "nope") || strings.Contains(body, "favicon") {
		t.Error("/metrics labels a series with a request path")
	}
}

// TestIngestErrorClassification: a batch the journal refuses as too large
// for one frame is the request's fault and answers 413 batch_too_large, not
// a journal fault's 503; any other ingest error is a 400 invalid_batch.
func TestIngestErrorClassification(t *testing.T) {
	for _, c := range []struct {
		err    error
		status int
		code   string
	}{
		{fmt.Errorf("engine: session %q: %w", "s", dqm.ErrBatchTooLarge), http.StatusRequestEntityTooLarge, codeBatchTooLarge},
		{fmt.Errorf("engine: vote 0: item 9 outside population [0, 5)"), http.StatusBadRequest, codeInvalidBatch},
	} {
		if got := ingestStatus(c.err); got != c.status {
			t.Errorf("ingestStatus(%v) = %d, want %d", c.err, got, c.status)
		}
		if got := ingestCode(c.err); got != c.code {
			t.Errorf("ingestCode(%v) = %q, want %q", c.err, got, c.code)
		}
	}
}
