// Observability plane of dqm-serve: the /metrics endpoint (Prometheus text
// format), per-route HTTP instrumentation, optional /debug/pprof, and the
// periodic one-line stats log.
//
// Two registries feed one scrape: metrics.Default carries the process-wide
// engine and WAL instruments (dqm_engine_*, dqm_wal_*), and the server's own
// registry carries everything scoped to this server instance — per-route HTTP
// latency/counts, the SSE subscriber gauge, live sessions, uptime.
package main

import (
	"log"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"dqm/internal/metrics"
)

// setupObservability registers the server-scoped instruments and, when
// enabled, the /metrics and /debug/pprof endpoints. Called once from
// newServer after the engine exists.
func (s *server) setupObservability() {
	s.started = time.Now()
	s.reg = metrics.NewRegistry()
	s.watchers = s.reg.Gauge("dqm_serve_watch_subscribers",
		"Live SSE watch subscribers.")
	s.inflight = s.reg.Gauge("dqm_http_inflight_requests",
		"HTTP requests currently being served.")
	s.reg.GaugeFunc("dqm_serve_sessions",
		"Sessions live in this server's engine.",
		func() float64 { return float64(s.engine.NumSessions()) })
	s.reg.GaugeFunc("dqm_serve_uptime_seconds",
		"Seconds since this server was created.",
		func() float64 { return time.Since(s.started).Seconds() })

	s.mux.Handle("GET /metrics", metrics.Handler(metrics.Default, s.reg))
	if s.cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// route registers one instrumented handler: a per-route latency histogram
// (created now, so the hot path only observes) and a requests counter by
// (route, status code), resolved through a lock-free cache after first use.
func (s *server) route(pattern, name string, h http.HandlerFunc) {
	hist := s.reg.Histogram("dqm_http_request_seconds",
		"HTTP request latency by route; for the SSE watch route this is the whole stream lifetime.",
		metrics.DurationBuckets, metrics.Label{Name: "route", Value: name})
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.inflight.Inc()
		sw := &statusWriter{ResponseWriter: w}
		var out http.ResponseWriter = sw
		// Only advertise Flusher when the underlying writer really flushes:
		// the watch handler's streaming-unsupported guard must keep working
		// through the wrapper.
		if _, ok := w.(http.Flusher); ok {
			out = &flushingStatusWriter{sw}
		}
		// Deferred so a panicking handler (net/http recovers it) still
		// settles the inflight gauge and is counted.
		defer func() {
			s.inflight.Dec()
			hist.ObserveSince(start)
			s.requestCounter(name, sw.Code()).Inc()
		}()
		h(out, r)
	})
}

// statusWriter captures the response status for the requests counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the underlying writer's
// write-deadline and flush support through the instrumentation wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Code returns the response status (200 when the handler never set one).
func (w *statusWriter) Code() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// flushingStatusWriter adds Flush passthrough for underlying writers that
// support it, so wrapping does not break SSE.
type flushingStatusWriter struct {
	*statusWriter
}

func (w *flushingStatusWriter) Flush() {
	w.ResponseWriter.(http.Flusher).Flush()
}

// requestCounter returns the dqm_http_requests_total{route,code} counter,
// cached in a sync.Map so the per-request cost after the first occurrence of
// a (route, code) pair is one lock-free map load.
func (s *server) requestCounter(route string, code int) *metrics.Counter {
	key := route + ":" + strconv.Itoa(code)
	if c, ok := s.reqCounters.Load(key); ok {
		return c.(*metrics.Counter)
	}
	c := s.reg.Counter("dqm_http_requests_total",
		"HTTP requests served, by route and status code.",
		metrics.Label{Name: "route", Value: route},
		metrics.Label{Name: "code", Value: strconv.Itoa(code)})
	s.reqCounters.Store(key, c)
	return c
}

// statsLogger emits one summary line per interval — the glanceable health
// signal for operators without a scraper: session count, ingest rate since
// the last line, cumulative cache hit ratio, subscribers.
type statsLogger struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// startStatsLogger begins periodic logging; Stop is idempotent.
func (s *server) startStatsLogger(interval time.Duration) *statsLogger {
	sl := &statsLogger{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sl.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		lastVotes, _ := metrics.Default.Value("dqm_engine_votes_total")
		lastPasses, lastSessions, _ := metrics.Default.HistogramStats("dqm_wal_group_commit_sessions")
		lastCIs, lastCISecs, _ := metrics.Default.HistogramStats("dqm_engine_bootstrap_seconds")
		lastTick := time.Now()
		for {
			select {
			case <-sl.stop:
				return
			case now := <-t.C:
				votes, _ := metrics.Default.Value("dqm_engine_votes_total")
				tasks, _ := metrics.Default.Value("dqm_engine_tasks_total")
				hits, _ := metrics.Default.Value("dqm_engine_estimate_cache_hits_total")
				misses, _ := metrics.Default.Value("dqm_engine_estimate_cache_misses_total")
				hitPct := 100.0
				if hits+misses > 0 {
					hitPct = 100 * hits / (hits + misses)
				}
				rate := (votes - lastVotes) / now.Sub(lastTick).Seconds()
				// Group-commit effectiveness over the interval: fsync passes
				// and mean journals amortized per pass (only meaningful on a
				// durable engine; both stay 0 otherwise).
				passes, sessions, _ := metrics.Default.HistogramStats("dqm_wal_group_commit_sessions")
				meanGC := 0.0
				if d := passes - lastPasses; d > 0 {
					meanGC = (sessions - lastSessions) / float64(d)
				}
				waiters, _ := metrics.Default.Value("dqm_wal_sync_waiters")
				// Bootstrap CIs over the interval, which run off the session
				// lock.
				cis, ciSecs, _ := metrics.Default.HistogramStats("dqm_engine_bootstrap_seconds")
				ciMeanMS := 0.0
				if d := cis - lastCIs; d > 0 {
					ciMeanMS = 1000 * (ciSecs - lastCISecs) / float64(d)
				}
				log.Printf("stats: sessions=%d votes=%.0f (+%.0f/s) tasks=%.0f cache_hit=%.1f%% watch=%d inflight=%d evictions=%d gc_passes=%d gc_mean=%.1f sync_waiters=%.0f ci=%d ci_mean=%.1fms",
					s.engine.NumSessions(), votes, rate, tasks, hitPct,
					s.watchers.Value(), s.inflight.Value(), s.engine.Evictions(),
					passes-lastPasses, meanGC, waiters,
					cis-lastCIs, ciMeanMS)
				lastVotes, lastTick = votes, now
				lastPasses, lastSessions = passes, sessions
				lastCIs, lastCISecs = cis, ciSecs
			}
		}
	}()
	return sl
}

// Stop terminates the logger and waits for the goroutine to exit.
func (sl *statsLogger) Stop() {
	if sl == nil {
		return
	}
	sl.once.Do(func() { close(sl.stop) })
	<-sl.done
}
