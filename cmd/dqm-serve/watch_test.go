package main

import (
	"bufio"
	"bytes"
	"context"
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
	"dqm/internal/hub"
)

// ingestTasks streams deterministic tasks into a session over HTTP.
func ingestTasks(t *testing.T, srv http.Handler, id string, items, from, to int) {
	t.Helper()
	for task := from; task < to; task++ {
		votes := []map[string]any{}
		for k := 0; k < 4; k++ {
			votes = append(votes, map[string]any{"item": (task*5 + k) % items, "worker": k, "dirty": (task+k)%2 == 0})
		}
		do(t, srv, "POST", "/v1/sessions/"+id+"/votes", map[string]any{"votes": votes, "end_task": true}, http.StatusOK)
	}
}

// TestWindowedEstimatesEndpoint: ?window= serves the three views with span
// metadata; unavailable views and bad kinds fail with useful statuses.
func TestWindowedEstimatesEndpoint(t *testing.T) {
	srv := mustServer(t, serverConfig{})
	do(t, srv, "POST", "/v1/sessions", map[string]any{
		"id": "win", "items": 30,
		"config": map[string]any{"window": map[string]any{"size": 5, "stride": 5, "decay_alpha": 0.5}},
	}, http.StatusCreated)

	// Before any completed window: current works, last/decayed 409.
	ingestTasks(t, srv, "win", 30, 0, 3)
	cur := do(t, srv, "GET", "/v1/sessions/win/estimates?window=current", nil, http.StatusOK)
	w := cur["window"].(map[string]any)
	if w["kind"] != "current" || w["end_task"].(float64) != 3 || w["complete"] != false {
		t.Fatalf("current window = %v", w)
	}
	do(t, srv, "GET", "/v1/sessions/win/estimates?window=last", nil, http.StatusConflict)
	do(t, srv, "GET", "/v1/sessions/win/estimates?window=bogus", nil, http.StatusBadRequest)
	do(t, srv, "GET", "/v1/sessions/win/estimates?window=last&ci=0.95", nil, http.StatusBadRequest)

	// After two full windows, last covers [5,10) and decayed is available.
	ingestTasks(t, srv, "win", 30, 3, 10)
	last := do(t, srv, "GET", "/v1/sessions/win/estimates?window=last", nil, http.StatusOK)
	w = last["window"].(map[string]any)
	if w["start_task"].(float64) != 5 || w["end_task"].(float64) != 10 || w["complete"] != true {
		t.Fatalf("last window = %v", w)
	}
	do(t, srv, "GET", "/v1/sessions/win/estimates?window=decayed", nil, http.StatusOK)

	// The all-time read carries no window block but does carry a version.
	all := do(t, srv, "GET", "/v1/sessions/win/estimates", nil, http.StatusOK)
	if _, hasWin := all["window"]; hasWin {
		t.Fatalf("all-time estimates carry a window block: %v", all)
	}
	if all["version"].(float64) != 10 {
		t.Fatalf("version = %v, want 10", all["version"])
	}

	// Bad window configs are rejected at create time.
	do(t, srv, "POST", "/v1/sessions", map[string]any{
		"id": "badwin", "items": 30,
		"config": map[string]any{"window": map[string]any{"size": 5, "stride": 9}},
	}, http.StatusBadRequest)

	// Windowless sessions 409 on windowed reads.
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "plain", "items": 30}, http.StatusCreated)
	do(t, srv, "GET", "/v1/sessions/plain/estimates?window=current", nil, http.StatusConflict)
}

// TestBatchEstimatesEndpoint: one POST returns many sessions' estimates,
// reporting unknown ids and per-session windowed errors without failing the
// batch.
func TestBatchEstimatesEndpoint(t *testing.T) {
	srv := mustServer(t, serverConfig{})
	for _, id := range []string{"a", "b"} {
		do(t, srv, "POST", "/v1/sessions", map[string]any{"id": id, "items": 20}, http.StatusCreated)
	}
	ingestTasks(t, srv, "a", 20, 0, 4)

	out := do(t, srv, "POST", "/v1/estimates:batch", map[string]any{"ids": []string{"a", "b", "ghost", "a"}}, http.StatusOK)
	results := out["results"].(map[string]any)
	if len(results) != 2 {
		t.Fatalf("results = %v", results)
	}
	if results["a"].(map[string]any)["version"].(float64) != 4 {
		t.Fatalf("batch version for a = %v", results["a"])
	}
	missing := out["missing"].([]any)
	if len(missing) != 1 || missing[0] != "ghost" {
		t.Fatalf("missing = %v", missing)
	}

	// Windowed batch: windowless sessions land in "errors", not in results.
	do(t, srv, "POST", "/v1/sessions", map[string]any{
		"id": "winb", "items": 20,
		"config": map[string]any{"window": map[string]any{"size": 2}},
	}, http.StatusCreated)
	ingestTasks(t, srv, "winb", 20, 0, 4)
	out = do(t, srv, "POST", "/v1/estimates:batch", map[string]any{"ids": []string{"a", "winb"}, "window": "last"}, http.StatusOK)
	if _, ok := out["results"].(map[string]any)["winb"]; !ok {
		t.Fatalf("windowed batch missing winb: %v", out)
	}
	if _, ok := out["errors"].(map[string]any)["a"]; !ok {
		t.Fatalf("windowless session did not error in windowed batch: %v", out)
	}

	do(t, srv, "POST", "/v1/estimates:batch", map[string]any{"ids": []string{}}, http.StatusBadRequest)
	do(t, srv, "POST", "/v1/estimates:batch", map[string]any{"ids": []string{"a"}, "window": "bogus"}, http.StatusBadRequest)
}

// TestMaxBodyBytes: oversized JSON bodies get a clean 413 instead of being
// buffered.
func TestMaxBodyBytes(t *testing.T) {
	srv := mustServer(t, serverConfig{MaxBodyBytes: 1024})
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "s", "items": 10}, http.StatusCreated)
	big := bytes.Repeat([]byte("x"), 4096)
	req := httptest.NewRequest("POST", "/v1/sessions/s/votes", bytes.NewReader(append([]byte(`{"votes":[{"item":1}],"pad":"`), append(big, []byte(`"}`)...)...)))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413 (body %s)", rec.Code, rec.Body.String())
	}
}

// sseClient subscribes to a watch stream and forwards decoded events.
type sseEvent struct {
	id   string
	data map[string]any
}

func watchStream(t *testing.T, ctx context.Context, base, path string) (<-chan sseEvent, func()) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, "GET", base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("watch status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("watch content-type = %q", ct)
	}
	events := make(chan sseEvent, 64)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		var ev sseEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "id: "):
				ev.id = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "data: "):
				var data map[string]any
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &data); err == nil {
					ev.data = data
				}
			case line == "":
				if ev.data != nil {
					events <- ev
				}
				ev = sseEvent{}
			}
		}
	}()
	return events, func() { resp.Body.Close() }
}

// TestWatchStreamsUpdates: the SSE endpoint pushes a payload when the version
// advances, coalesces bursts, resumes from a cursor, and stays silent on an
// idle session.
func TestWatchStreamsUpdates(t *testing.T) {
	srv := mustServer(t, serverConfig{WatchMinInterval: 10 * time.Millisecond})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "w", "items": 20}, http.StatusCreated)
	ingestTasks(t, srv, "w", 20, 0, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	events, stop := watchStream(t, ctx, hs.URL, "/v1/sessions/w/watch")
	defer stop()

	// The first event arrives immediately (version 2 > cursor 0).
	select {
	case ev := <-events:
		if ev.id != "2" || ev.data["version"].(float64) != 2 {
			t.Fatalf("first event = %+v, want version 2", ev)
		}
	case <-ctx.Done():
		t.Fatal("no initial watch event")
	}

	// A burst of mutations coalesces into at least one, at most a few pushes,
	// with the last one carrying the final version.
	ingestTasks(t, srv, "w", 20, 2, 8)
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev := <-events:
			if ev.data["version"].(float64) == 8 {
				goto resumed
			}
		case <-deadline:
			t.Fatal("watch never delivered the final version")
		}
	}
resumed:
	// No further mutations: no further estimate events for a few intervals.
	select {
	case ev, open := <-events:
		if open {
			t.Fatalf("idle session pushed %+v", ev)
		}
	case <-time.After(100 * time.Millisecond):
	}

	// Resuming with the final cursor stays silent; an older cursor re-delivers.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	caught, stop2 := watchStream(t, ctx2, hs.URL, "/v1/sessions/w/watch?cursor=8")
	defer stop2()
	select {
	case ev := <-caught:
		t.Fatalf("caught-up watcher got %+v", ev)
	case <-time.After(100 * time.Millisecond):
	}
	behind, stop3 := watchStream(t, ctx2, hs.URL, "/v1/sessions/w/watch?cursor=3")
	defer stop3()
	select {
	case ev := <-behind:
		if ev.data["version"].(float64) != 8 {
			t.Fatalf("resume event = %+v", ev)
		}
	case <-ctx2.Done():
		t.Fatal("stale cursor never re-delivered")
	}

	// Invalid parameters.
	for _, p := range []string{"?cursor=abc", "?min_interval=nope", "?window=bogus"} {
		resp, err := http.Get(hs.URL + "/v1/sessions/w/watch" + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("watch%s = %d, want 400", p, resp.StatusCode)
		}
	}
}

// TestWatchWindowedStream: ?window= watchers receive windowed payloads once a
// window completes.
func TestWatchWindowedStream(t *testing.T) {
	srv := mustServer(t, serverConfig{WatchMinInterval: 10 * time.Millisecond})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	do(t, srv, "POST", "/v1/sessions", map[string]any{
		"id": "ww", "items": 20,
		"config": map[string]any{"window": map[string]any{"size": 3}},
	}, http.StatusCreated)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	events, stop := watchStream(t, ctx, hs.URL, "/v1/sessions/ww/watch?window=last")
	defer stop()

	ingestTasks(t, srv, "ww", 20, 0, 7)
	select {
	case ev := <-events:
		w, ok := ev.data["window"].(map[string]any)
		if !ok || w["kind"] != "last" || w["complete"] != true {
			t.Fatalf("windowed watch event = %+v", ev.data)
		}
	case <-ctx.Done():
		t.Fatal("windowed watcher never received an event")
	}
}

// TestWatchRejectsImpossibleStreams: a watch that can never produce an event
// (no window config, no decay aggregate) fails up front with 409 instead of
// heartbeating forever; an unknown session is 404.
func TestWatchRejectsImpossibleStreams(t *testing.T) {
	srv := mustServer(t, serverConfig{})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "plain", "items": 10}, http.StatusCreated)
	do(t, srv, "POST", "/v1/sessions", map[string]any{
		"id": "nodecay", "items": 10,
		"config": map[string]any{"window": map[string]any{"size": 3}},
	}, http.StatusCreated)
	for path, want := range map[string]int{
		"/v1/sessions/plain/watch?window=last":      http.StatusConflict,
		"/v1/sessions/nodecay/watch?window=decayed": http.StatusConflict,
		"/v1/sessions/ghost/watch":                  http.StatusNotFound,
	} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestWatchEndsWhenSessionDeleted: deleting the session closes the stream
// instead of leaving the subscriber silently pinned to a detached object.
func TestWatchEndsWhenSessionDeleted(t *testing.T) {
	srv := mustServer(t, serverConfig{WatchMinInterval: 10 * time.Millisecond})
	hs := httptest.NewServer(srv)
	defer hs.Close()
	do(t, srv, "POST", "/v1/sessions", map[string]any{"id": "doomed", "items": 10}, http.StatusCreated)
	ingestTasks(t, srv, "doomed", 10, 0, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	events, stop := watchStream(t, ctx, hs.URL, "/v1/sessions/doomed/watch")
	defer stop()
	select {
	case <-events:
	case <-ctx.Done():
		t.Fatal("no initial event")
	}
	do(t, srv, "DELETE", "/v1/sessions/doomed", nil, http.StatusNoContent)
	select {
	case _, open := <-events:
		if open {
			// Drain: the channel closes when the server ends the stream.
			for range events {
			}
		}
	case <-ctx.Done():
		t.Fatal("stream did not end after session delete")
	}
}

// BenchmarkWatchFanout measures watch fan-out on one hot session; an
// iteration is one mutation delivered to every subscriber, so events/s is
// the aggregate delivery rate.
//
// "inproc" drives the hub directly (engine ingest -> notifier -> pump ->
// hub subscribers) across subscriber populations and is the fan-out plane's
// own ceiling; it also counts encoder calls and fails if a published
// version is serialized more than once — the hub's encode-once contract at
// the serve layer. "http" adds the full SSE stack at 1000 subscribers —
// handler, ResponseController, chunked writes, client scanners — and is
// syscall-bound on small machines.
func BenchmarkWatchFanout(b *testing.B) {
	for _, subs := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("inproc/subs=%d", subs), func(b *testing.B) {
			benchWatchFanoutInproc(b, subs)
		})
	}
	b.Run("http", benchWatchFanoutHTTP)
}

func benchWatchFanoutInproc(b *testing.B, subscribers int) {
	srv, err := newServer(serverConfig{})
	if err != nil {
		b.Fatal(err)
	}
	sess, err := srv.engine.CreateSession("fan", 1000, dqm.Config{})
	if err != nil {
		b.Fatal(err)
	}
	// A dedicated hub with no pump floor, sharing the server's encoder (with
	// a call counter in front): the measurement is pure fan-out, not
	// coalescing-interval sleep.
	var encodes atomic.Int64
	h := hub.New(hub.Config{
		Resolve: func(id string) (hub.Session, bool) {
			s2, ok := srv.engine.Session(id)
			if !ok {
				return nil, false
			}
			return hubSession{s2}, true
		},
		Encode: func(s hub.Session, v hub.View) ([]byte, uint64, error) {
			encodes.Add(1)
			return srv.encodeEstimates(s, v)
		},
	})
	defer h.Drop("fan")

	var delivered atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < subscribers; i++ {
		sub, ok := h.Subscribe("fan", hub.ViewAll, 0, 0)
		if !ok {
			b.Fatal("subscribe failed")
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sub.Close()
			for {
				ev, ok := sub.Next(ctx)
				if !ok {
					return
				}
				if !ev.Heartbeat {
					delivered.Add(1)
				}
			}
		}()
	}

	vote := []dqm.Vote{{Item: 1, Worker: 1, Dirty: true}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vote[0].Item = i % 1000
		if err := sess.AppendVotes(vote, true); err != nil {
			b.Fatal(err)
		}
		target := int64(i+1) * int64(subscribers)
		for delivered.Load() < target {
			time.Sleep(5 * time.Microsecond)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(delivered.Load())/b.Elapsed().Seconds(), "events/s")
	perVersion := float64(encodes.Load()) / float64(b.N)
	b.ReportMetric(perVersion, "encodes/version")
	if perVersion > 1.01 {
		b.Fatalf("encoded %.2f times per published version, want 1 (encode-once contract)", perVersion)
	}
	cancel()
	wg.Wait()
}

func benchWatchFanoutHTTP(b *testing.B) {
	const subscribers = 1000
	// 1ms floor: with event-driven wakeups the interval only bounds burst
	// coalescing, so the old tick-phase-sized floor is unnecessary.
	srv, err := newServer(serverConfig{WatchMinInterval: time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	body := bytes.NewBufferString(`{"id":"fan","items":1000}`)
	resp, err := http.Post(hs.URL+"/v1/sessions", "application/json", body)
	if err != nil || resp.StatusCode != http.StatusCreated {
		b.Fatalf("create: %v %v", err, resp)
	}
	resp.Body.Close()

	tr := &http.Transport{MaxIdleConnsPerHost: subscribers, MaxConnsPerHost: 0}
	client := &http.Client{Transport: tr}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var delivered atomic.Int64
	barrier := make(chan struct{}, subscribers)
	var wg sync.WaitGroup
	for i := 0; i < subscribers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequestWithContext(ctx, "GET", hs.URL+"/v1/sessions/fan/watch", nil)
			resp, err := client.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			barrier <- struct{}{}
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				if strings.HasPrefix(sc.Text(), "id: ") {
					delivered.Add(1)
				}
			}
		}()
	}
	for i := 0; i < subscribers; i++ {
		<-barrier
	}

	ingest := func(round int) {
		var buf bytes.Buffer
		fmt.Fprintf(&buf, `{"votes":[{"item":%d,"worker":1,"dirty":true}],"end_task":true}`, round%1000)
		resp, err := http.Post(hs.URL+"/v1/sessions/fan/votes", "application/json", &buf)
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := delivered.Load() + subscribers
		ingest(i)
		for delivered.Load() < target {
			time.Sleep(time.Millisecond)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(delivered.Load())/b.Elapsed().Seconds(), "events/s")
	cancel()
	wg.Wait()
}
