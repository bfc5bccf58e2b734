package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// conn is one client connection: an http.Client whose transport holds at
// most one TCP connection, so the benchmark opens exactly the connections it
// names. Requests are never retried (net/http retries only idempotent
// requests on a reused connection), so a POST is sent at most once.
type conn struct {
	base string
	tr   *http.Transport
	hc   *http.Client
	// cancel ends the watch stream started by stream, if any.
	cancel context.CancelFunc
}

// ioTimeout bounds every request that is not a stream, so a hung server
// fails the run instead of hanging it.
const ioTimeout = 30 * time.Second

func newConn(addr string) *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &conn{base: "http://" + addr, tr: tr, hc: &http.Client{Transport: tr}}
}

// close drops the idle connection; the next request reconnects.
func (c *conn) close() { c.tr.CloseIdleConnections() }

// reply is one response.
type reply struct {
	status int
	body   []byte
	etag   string
}

// do sends one request and reads the whole response. inm, when set, is sent
// as If-None-Match.
func (c *conn) do(method, path, ctype string, body []byte, inm string) (reply, error) {
	ctx, cancel := context.WithTimeout(context.Background(), ioTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	return reply{status: resp.StatusCode, body: b, etag: resp.Header.Get("ETag")}, nil
}

// get is do for plain GETs.
func (c *conn) get(path string) (reply, error) {
	return c.do(http.MethodGet, path, "", nil, "")
}

// send performs a request and requires one of the ok statuses.
func (c *conn) send(method, path, ctype string, body []byte, ok ...int) (reply, error) {
	r, err := c.do(method, path, ctype, body, "")
	if err != nil {
		return r, err
	}
	for _, s := range ok {
		if r.status == s {
			return r, nil
		}
	}
	return r, fmt.Errorf("%s %s: status %d: %s", method, path, r.status, strings.TrimSpace(string(r.body)))
}

// stream sends a GET and returns the 200 response's body as it arrives, for
// server-sent events. shutdown ends it; the caller closes the body.
func (c *conn) stream(path string) (io.ReadCloser, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	c.cancel = cancel
	return resp.Body, nil
}

// shutdown ends the stream: a read blocked on its body returns an error.
func (c *conn) shutdown() {
	if c.cancel != nil {
		c.cancel()
	}
}

// sleepUntil sleeps in nanosleep with the thread's timer slack lowered to
// 1 ns, so open-loop sends leave within ~10µs of their due time. Go's timers
// wake 0.5–1 ms late on Linux, which would swamp the sub-millisecond
// latencies the open loops time from the due time.
func sleepUntil(t time.Time) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const prSetTimerslack = 29
	// Best effort: with the default 50µs slack pacing is merely coarser.
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// openLoop calls fn(i, due) for every op due in [start, end), one after the
// other, never before its due time. A slow op makes later ones late; they
// are still sent, and their latency is timed from when they were due. Ops
// still unsent at the deadline are returned as missed.
func openLoop(start, end, deadline time.Time, interval time.Duration, fn func(i int, due time.Time)) (missed int) {
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			return 0
		}
		if time.Now().After(deadline) {
			return int((end.Sub(due) + interval - 1) / interval)
		}
		sleepUntil(due)
		fn(i, due)
	}
}

// sseFrame is one received watch event.
type sseFrame struct {
	arrived time.Time
	id      uint64
	data    []byte
}

// readSSE parses a text/event-stream body into frames until it ends, calling
// fn for each complete event. Comment lines (heartbeats) are skipped.
func readSSE(r io.Reader, fn func(sseFrame)) error {
	br := bufio.NewReaderSize(r, 64<<10)
	var f sseFrame
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return err
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			if f.data != nil {
				f.arrived = time.Now()
				fn(f)
			}
			f = sseFrame{}
		case line[0] == ':':
		case bytes.HasPrefix(line, []byte("id: ")):
			id, err := strconv.ParseUint(string(line[4:]), 10, 64)
			if err != nil {
				return fmt.Errorf("sse: bad id %q", line[4:])
			}
			f.id = id
		case bytes.HasPrefix(line, []byte("data: ")):
			f.data = append([]byte(nil), line[6:]...)
		}
	}
}
