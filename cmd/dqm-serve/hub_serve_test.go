package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// failingWriter streams normally until `failAfter` bytes of SSE body have
// been written, then fails every write — the shape of a peer whose
// connection died mid-stream.
type failingWriter struct {
	header  http.Header
	written int
	limit   int
	flushes int
}

func (w *failingWriter) Header() http.Header {
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}

func (w *failingWriter) WriteHeader(int) {}

func (w *failingWriter) Write(b []byte) (int, error) {
	if w.written >= w.limit {
		return 0, errors.New("broken pipe")
	}
	w.written += len(b)
	return len(b), nil
}

func (w *failingWriter) Flush() { w.flushes++ }

// TestWatchTerminatesOnWriteError: a failed SSE write must end the stream
// immediately instead of spinning until context teardown (the old handler
// discarded Fprintf/Flush errors).
func TestWatchTerminatesOnWriteError(t *testing.T) {
	srv := mustServer(t, serverConfig{WatchMinInterval: 5 * time.Millisecond})
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "w", "items": 10}, http.StatusCreated)
	ingestTasks(t, srv, "w", 10, 0, 1)

	// Fail on the very first event write. The request context stays open for
	// 10s: only the write-error check can end the handler promptly.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req := httptest.NewRequest("GET", "/v1/sessions/w/watch", nil).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeHTTP(&failingWriter{limit: 0}, req)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not terminate on write error")
	}

	// Ingest keeps mutating while a second dead-peer stream is up: the
	// handler must exit after the first failed write even though events keep
	// being published.
	go func() {
		for i := 1; i < 40; i++ {
			ingestTasks(t, srv, "w", 10, i, i+1)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	done2 := make(chan struct{})
	req2 := httptest.NewRequest("GET", "/v1/sessions/w/watch?cursor=1000", nil).WithContext(ctx)
	go func() {
		defer close(done2)
		srv.ServeHTTP(&failingWriter{limit: 0}, req2)
	}()
	select {
	case <-done2:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not terminate on write error under active ingest")
	}
}

// TestEstimatesETagConditionalReads: estimate GETs carry ETag:"<version>",
// If-None-Match on the current version answers 304 from the version check
// alone, and any mutation invalidates the tag.
func TestEstimatesETagConditionalReads(t *testing.T) {
	srv := mustServer(t, serverConfig{})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	do(t, srv, "POST", "/v1/sessions", map[string]any{
		"id": "e", "items": 20,
		"config": map[string]any{"window": map[string]any{"size": 2}},
	}, http.StatusCreated)
	ingestTasks(t, srv, "e", 20, 0, 4)

	get := func(path, inm string) *http.Response {
		t.Helper()
		req, err := http.NewRequest("GET", hs.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	resp := get("/v1/sessions/e/estimates", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET = %d, want 200", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag != `"4"` {
		t.Fatalf("ETag = %q, want %q", etag, `"4"`)
	}

	for _, inm := range []string{etag, `W/"4"`, `"9", "4"`, "*"} {
		if resp := get("/v1/sessions/e/estimates", inm); resp.StatusCode != http.StatusNotModified {
			t.Fatalf("If-None-Match %q = %d, want 304", inm, resp.StatusCode)
		}
	}
	if resp := get("/v1/sessions/e/estimates", `"3"`); resp.StatusCode != http.StatusOK {
		t.Fatalf("stale If-None-Match = %d, want 200", resp.StatusCode)
	}

	// Windowed reads share the version tag.
	resp = get("/v1/sessions/e/estimates?window=last", "")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != `"4"` {
		t.Fatalf("windowed GET = %d ETag %q", resp.StatusCode, resp.Header.Get("ETag"))
	}
	if resp := get("/v1/sessions/e/estimates?window=last", `"4"`); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("windowed If-None-Match = %d, want 304", resp.StatusCode)
	}

	// Mutation invalidates: the same tag now gets a fresh 200 with a new tag.
	ingestTasks(t, srv, "e", 20, 4, 5)
	resp = get("/v1/sessions/e/estimates", `"4"`)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != `"5"` {
		t.Fatalf("post-mutation = %d ETag %q, want 200 %q", resp.StatusCode, resp.Header.Get("ETag"), `"5"`)
	}

	// The conditional plane is exact about content: a 200 after 304s still
	// decodes to the same payload shape (cached bytes, not a re-encode).
	out := do(t, srv, "GET", "/v1/sessions/e/estimates", nil, http.StatusOK)
	if out["version"].(float64) != 5 {
		t.Fatalf("version = %v, want 5", out["version"])
	}
}

// TestWatchLastEventIDResume: the standard SSE reconnect header resumes the
// stream exactly like ?cursor= — a stale id re-delivers the latest version,
// a current id stays silent.
func TestWatchLastEventIDResume(t *testing.T) {
	srv := mustServer(t, serverConfig{WatchMinInterval: 5 * time.Millisecond})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "r", "items": 10}, http.StatusCreated)
	ingestTasks(t, srv, "r", 10, 0, 3)

	stream := func(lastEventID string) (<-chan sseEvent, func()) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		req, err := http.NewRequestWithContext(ctx, "GET", hs.URL+"/v1/sessions/r/watch", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Last-Event-ID", lastEventID)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		events := make(chan sseEvent, 8)
		go func() {
			defer close(events)
			var ev sseEvent
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				line := sc.Text()
				switch {
				case strings.HasPrefix(line, "id: "):
					ev.id = strings.TrimPrefix(line, "id: ")
				case strings.HasPrefix(line, "data: "):
					ev.data = map[string]any{"raw": strings.TrimPrefix(line, "data: ")}
				case line == "":
					if ev.data != nil {
						events <- ev
					}
					ev = sseEvent{}
				}
			}
		}()
		return events, func() { cancel(); resp.Body.Close() }
	}

	behind, stopBehind := stream("1")
	defer stopBehind()
	select {
	case ev := <-behind:
		if ev.id != "3" {
			t.Fatalf("resume event id = %q, want 3", ev.id)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Last-Event-ID resume never re-delivered")
	}

	current, stopCurrent := stream("3")
	defer stopCurrent()
	select {
	case ev := <-current:
		t.Fatalf("caught-up Last-Event-ID stream got %+v", ev)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestWatchEndsOnEvictRevive: on a durable engine, LRU eviction must end the
// stream (the hub drops the session) — and the session must still revive
// from its journal for subsequent reads, on which a NEW stream works.
func TestWatchEndsOnEvictRevive(t *testing.T) {
	srv := mustServer(t, serverConfig{
		DataDir:          t.TempDir(),
		MaxSessions:      1,
		WatchMinInterval: 5 * time.Millisecond,
	})
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "a", "items": 10}, http.StatusCreated)
	ingestTasks(t, srv, "a", 10, 0, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	events, stop := watchStream(t, ctx, hs.URL, "/v1/sessions/a/watch")
	defer stop()
	select {
	case <-events:
	case <-ctx.Done():
		t.Fatal("no initial event")
	}

	// Creating "b" evicts "a" (MaxSessions 1): the stream must END, not go
	// silently stale against the detached object.
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "b", "items": 10}, http.StatusCreated)
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, open := <-events:
			if !open {
				goto ended
			}
		case <-deadline:
			t.Fatal("stream did not end after eviction")
		}
	}
ended:
	// The evicted session revives from its journal with its state intact
	// (replay renumbers the mutation version; the data is what must match)...
	info := do(t, srv, "GET", "/v1/sessions/a", nil, http.StatusOK)
	if info["tasks"].(float64) != 2 || info["votes"].(float64) != 8 {
		t.Fatalf("revived session = tasks %v votes %v, want 2/8", info["tasks"], info["votes"])
	}
	revived := uint64(info["version"].(float64))
	// ...and a fresh watch binds to the revived incarnation and sees new
	// mutations.
	events2, stop2 := watchStream(t, ctx, hs.URL,
		fmt.Sprintf("/v1/sessions/a/watch?cursor=%d", revived))
	defer stop2()
	ingestTasks(t, srv, "a", 10, 2, 3)
	select {
	case ev := <-events2:
		if v := uint64(ev.data["version"].(float64)); v <= revived {
			t.Fatalf("post-revival event version = %d, want > %d", v, revived)
		}
	case <-ctx.Done():
		t.Fatal("revived session stream never delivered")
	}
}

// TestWatchEncodeErrorMetricRegistered: the encode-failure counter is part
// of the scrape surface even while zero (dashboards can alert on it).
func TestWatchEncodeErrorMetricRegistered(t *testing.T) {
	srv := mustServer(t, serverConfig{})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if !strings.Contains(body, "dqm_http_watch_encode_errors_total 0") {
		t.Fatalf("/metrics missing dqm_http_watch_encode_errors_total:\n%s", body)
	}
	for _, name := range []string{
		"dqm_hub_events_total", "dqm_hub_dropped_total",
		"dqm_hub_encodes_total", "dqm_hub_subscribers",
	} {
		if !strings.Contains(body, name) {
			t.Fatalf("/metrics missing %s", name)
		}
	}
}
