// Command dqm-serve exposes the DQM session engine over HTTP, so cleaning
// pipelines can stream worker votes for many datasets concurrently and poll
// the data-quality estimates while cleaning is in flight — the online-service
// shape the paper's metric is designed for.
//
// Usage:
//
//	dqm-serve [-addr :8334] [-shards 32] [-max-sessions 0] [-max-batch 100000]
//	          [-data-dir DIR] [-fsync batch|always|never] [-fsync-interval 100ms]
//	          [-policy-file policy.json] [-pprof] [-log-stats-interval 30s]
//
// With -data-dir the engine is durable: every session write-ahead-journals
// its votes under DIR, all journaled sessions are recovered on boot with
// bit-identical estimator state, and SIGINT/SIGTERM trigger a graceful
// shutdown — in-flight requests drain, then a final checkpoint of every live
// session is flushed. -fsync selects the journal flush policy: "always"
// fsyncs every ingest batch, "batch" (default) group-commits with at most
// -fsync-interval of acknowledged-but-unsynced writes, "never" leaves
// flushing to the OS.
//
// Endpoints (JSON request/response bodies):
//
//	GET    /healthz                        liveness + operational state (sessions,
//	                                       uptime, data dir, fsync policy)
//	GET    /metrics                        Prometheus text exposition (engine,
//	                                       WAL and HTTP instruments)
//	GET    /debug/pprof/                   runtime profiles (with -pprof)
//	GET    /v1/estimators                  registered estimator names
//	POST   /v1/sessions                    create a session
//	GET    /v1/sessions                    list session ids
//	GET    /v1/sessions/{id}               session info (incl. mutation version)
//	DELETE /v1/sessions/{id}               delete a session
//	POST   /v1/sessions/{id}/votes         append a vote batch / task entries
//	GET    /v1/sessions/{id}/estimates     estimates (?ci=0.95&replicates=200,
//	                                       ?window=current|last|decayed); sends
//	                                       ETag:"<version>", honors If-None-Match
//	GET    /v1/sessions/{id}/watch         SSE stream of estimate updates
//	                                       (?cursor=, ?min_interval=, ?window=;
//	                                       Last-Event-ID resumes)
//	POST   /v1/estimates:batch             estimates for many sessions at once
//	GET    /v1/sessions/{id}/gate          cached quality-gate decision
//	                                       (ETag:"<version>", honors If-None-Match)
//	PUT    /v1/sessions/{id}/policy        attach/replace the session's gate policy
//	GET    /v1/sessions/{id}/policy        effective policy + source
//	DELETE /v1/sessions/{id}/policy        remove the session's own policy
//
// Errors are a uniform JSON envelope {"error":{"code","message","details"}}
// with stable machine-readable codes (see docs/API.md); partial-ingest
// failures carry "ingested"/"tasks_ended" resume counters in details.
//
// A rollback is DELETE, create and a re-send of the trusted prefix of tasks:
// every estimate is a deterministic function of the vote stream, so the
// replay reproduces the estimates at the end of that prefix exactly.
//
// Quality gates: a policy (rules over remaining errors, SWITCH total,
// bootstrap-CI upper bound, windowed drift ratio) attaches per session via
// PUT .../policy, or to every session without its own via -policy-file. Each
// gated session's evaluator rides the session's hub pump, re-runs on mutation
// (no polling) and caches the decision pre-serialized; action transitions
// (proceed/warn/quarantine) POST the decision document to the policy's
// webhook through a bounded async dispatcher with retry and backoff.
//
// Estimate reads copy a per-session slot that every mutation fills while the
// session is being read, so polling is lock-free and O(1), If-None-Match on
// the current version answers 304 from one atomic check, and all watch
// subscribers of a session share a fan-out hub (internal/hub) that
// serializes each version's SSE frame once and multicasts the bytes with
// coalesce-to-latest semantics (floor: -watch-min-interval), woken by the
// engine's version-change notifier rather than per-subscriber tickers.
// Sessions created with
// "config":{"window":{"size":N,...}} additionally serve windowed estimates —
// the quality of the last N tasks — via ?window=.
//
// A vote batch is either {"votes": [{"item","worker","dirty"}...],
// "end_task": true} for one task, or {"entries": [{"task","item","worker",
// "dirty"}...]} in the votelog interchange format, with task boundaries at
// every task-id change (and after the final entry). Entries are applied one
// task at a time, each task atomically: on a bad entry mid-batch the
// already-completed tasks stay applied, and the error response reports
// "ingested" (votes applied) and "tasks_ended" so the client can resume from
// the exact failure point instead of guessing.
//
// The votes endpoint also accepts Content-Type: application/x-dqmv — the
// binary vote-log encoding (what `dqm-gen -votes-format binary` writes).
// Binary bodies skip JSON entirely: each task's raw vote bytes are decoded
// once into columns, journaled from them as one WAL block record and applied,
// with the same per-task atomicity, task-boundary rule, and resulting
// estimates as the equivalent {"entries": ...} request. Unknown content types
// get a 415 naming the accepted encodings.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"mime"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dqm"
	"dqm/internal/estimator"
	"dqm/internal/hub"
	"dqm/internal/metrics"
	"dqm/internal/policy"
	"dqm/internal/votelog"
)

func main() {
	fs := flag.NewFlagSet("dqm-serve", flag.ExitOnError)
	var (
		addr        = fs.String("addr", ":8334", "listen address")
		shards      = fs.Int("shards", 32, "session-table shards (rounded up to a power of two)")
		maxSessions = fs.Int("max-sessions", 0, "max live sessions, LRU-evicted beyond (0 = unlimited)")
		maxBatch    = fs.Int("max-batch", 100000, "max votes per ingest request")
		maxBody     = fs.Int64("max-body-bytes", 32<<20, "max JSON request body size in bytes")
		watchMinIv  = fs.Duration("watch-min-interval", 250*time.Millisecond, "min interval between watch (SSE) pushes per subscriber")
		dataDir     = fs.String("data-dir", "", "durable data directory (empty = in-memory only)")
		fsyncMode   = fs.String("fsync", "batch", "journal fsync policy: batch, always or never")
		fsyncEvery  = fs.Duration("fsync-interval", 100*time.Millisecond, "max fsync staleness under -fsync batch")
		recoverPar  = fs.Int("recovery-parallelism", 0, "concurrent session replays during boot recovery (0 = GOMAXPROCS, 1 = serial)")
		bootPar     = fs.Int("bootstrap-parallelism", 0, "worker goroutines per bootstrap CI (0 = per-CPU default, 1 = serial; intervals are identical at any setting)")
		drainWait   = fs.Duration("shutdown-timeout", 10*time.Second, "graceful-shutdown drain deadline")
		enablePprof = fs.Bool("pprof", false, "expose /debug/pprof/ runtime profiles")
		statsEvery  = fs.Duration("log-stats-interval", 0, "log a one-line stats summary at this interval (0 = off)")
		policyFile  = fs.String("policy-file", "", "JSON quality-gate policy applied to every session without its own (see docs/API.md)")
	)
	fs.Parse(os.Args[1:])

	fsync, err := parseFsync(*fsyncMode)
	if err != nil {
		log.Fatal(err)
	}
	var defaultPolicy json.RawMessage
	if *policyFile != "" {
		raw, err := os.ReadFile(*policyFile)
		if err != nil {
			log.Fatalf("dqm-serve: -policy-file: %v", err)
		}
		if _, err := policy.Parse(raw); err != nil {
			log.Fatalf("dqm-serve: -policy-file %s: %v", *policyFile, err)
		}
		defaultPolicy = raw
	}
	srv, err := newServer(serverConfig{
		Shards:               *shards,
		MaxSessions:          *maxSessions,
		MaxBatch:             *maxBatch,
		MaxBodyBytes:         *maxBody,
		WatchMinInterval:     *watchMinIv,
		DataDir:              *dataDir,
		Fsync:                fsync,
		FsyncInterval:        *fsyncEvery,
		RecoveryParallelism:  *recoverPar,
		BootstrapParallelism: *bootPar,
		EnablePprof:          *enablePprof,
		LogStatsInterval:     *statsEvery,
		DefaultPolicy:        defaultPolicy,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *dataDir != "" {
		recovered, elapsed := srv.engine.BootRecovery()
		log.Printf("dqm-serve durable in %s (fsync=%s), recovered %d session(s) in %s",
			*dataDir, *fsyncMode, recovered, elapsed.Round(time.Millisecond))
	}
	hs := &http.Server{
		Addr:    *addr,
		Handler: srv,
		// Slowloris/idle-connection bounds. No WriteTimeout: the watch
		// endpoint streams SSE indefinitely by design; everything else
		// responds promptly or is bounded by the body limit.
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// Graceful shutdown: stop accepting, drain in-flight requests up to the
	// deadline, then flush a final checkpoint of every live session.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("dqm-serve listening on %s", *addr)
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case <-ctx.Done():
		stop()
		log.Printf("dqm-serve shutting down (drain deadline %s)", *drainWait)
		sctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			log.Printf("dqm-serve: drain incomplete: %v", err)
		}
	}
	if err := srv.Close(); err != nil {
		log.Fatalf("dqm-serve: final checkpoint failed: %v", err)
	}
	log.Printf("dqm-serve stopped")
}

// parseFsync maps the -fsync flag onto the engine policy.
func parseFsync(mode string) (dqm.FsyncPolicy, error) {
	switch mode {
	case "batch":
		return dqm.FsyncBatch, nil
	case "always":
		return dqm.FsyncAlways, nil
	case "never":
		return dqm.FsyncNever, nil
	default:
		return 0, fmt.Errorf("dqm-serve: unknown -fsync %q (want batch, always or never)", mode)
	}
}

// serverConfig parameterizes the HTTP layer.
type serverConfig struct {
	Shards      int
	MaxSessions int
	// MaxBatch bounds the votes accepted per ingest request; 0 selects
	// 100000.
	MaxBatch int
	// MaxBodyBytes bounds JSON request bodies; 0 selects 32 MiB.
	MaxBodyBytes int64
	// WatchMinInterval is the per-subscriber floor between SSE pushes
	// (clients may ask for a LONGER interval via ?min_interval=); 0 selects
	// 250ms.
	WatchMinInterval time.Duration
	// DataDir enables the durable engine (empty = in-memory only).
	DataDir string
	// Fsync and FsyncInterval tune the journal flush policy under DataDir.
	Fsync         dqm.FsyncPolicy
	FsyncInterval time.Duration
	// RecoveryParallelism bounds concurrent session replays during boot
	// recovery; 0 selects GOMAXPROCS, 1 recovers serially.
	RecoveryParallelism int
	// BootstrapParallelism bounds worker goroutines per bootstrap CI; 0
	// selects a per-CPU default, 1 computes serially. Intervals are
	// bit-identical at any setting.
	BootstrapParallelism int
	// EnablePprof exposes /debug/pprof/ runtime profiles.
	EnablePprof bool
	// LogStatsInterval, when positive, logs a one-line operational summary
	// (sessions, ingest rate, cache hit ratio, subscribers) at this interval.
	LogStatsInterval time.Duration
	// DefaultPolicy, when non-empty, is a validated quality-gate policy
	// document applied to every session that has none of its own
	// (the -policy-file flag).
	DefaultPolicy json.RawMessage
	// GateMinInterval rate-limits per-session gate re-evaluation under bursty
	// ingest (evaluations coalesce to the trailing edge); 0 selects 50ms.
	GateMinInterval time.Duration
	// Webhook tunes the shared transition-webhook dispatcher; zero fields
	// select the policy package defaults.
	Webhook policy.DispatcherConfig
}

// server is the HTTP front of one dqm.Engine.
type server struct {
	engine *dqm.Engine
	mux    *http.ServeMux
	cfg    serverConfig

	sessionSeq atomic.Int64

	// Watch fan-out plane (see hub.go): encode-once broadcast of estimate
	// frames plus the conditional-read payload cache behind ETag/304.
	hub             *hub.Hub
	watchEncodeErrs *metrics.Counter

	// Quality-gate plane (see gate.go): gates live in their session's hub
	// entry; transitions feed the shared bounded webhook dispatcher.
	dispatcher *policy.Dispatcher

	// Observability plane (see observability.go).
	started     time.Time
	reg         *metrics.Registry
	watchers    *metrics.Gauge
	inflight    *metrics.Gauge
	reqCounters sync.Map // "route:code" -> *metrics.Counter
	stats       *statsLogger
}

func newServer(cfg serverConfig) (*server, error) {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 100000
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	if cfg.WatchMinInterval <= 0 {
		cfg.WatchMinInterval = 250 * time.Millisecond
	}
	if cfg.GateMinInterval <= 0 {
		cfg.GateMinInterval = 50 * time.Millisecond
	}
	s := &server{
		mux: http.NewServeMux(),
		cfg: cfg,
	}
	s.dispatcher = policy.NewDispatcher(cfg.Webhook)
	engineCfg := dqm.EngineConfig{
		Shards:      cfg.Shards,
		MaxSessions: cfg.MaxSessions,
		// Watch streams and gates of an LRU-evicted session must end rather
		// than go stale on the detached session object (the nil guard covers
		// evictions during recovery, before the hub exists).
		OnEvict: func(id string) {
			if s.hub != nil {
				s.hub.Drop(id)
			}
		},
		Fsync:                cfg.Fsync,
		FsyncInterval:        cfg.FsyncInterval,
		RecoveryParallelism:  cfg.RecoveryParallelism,
		BootstrapParallelism: cfg.BootstrapParallelism,
	}
	if cfg.DataDir != "" {
		eng, err := dqm.OpenEngine(cfg.DataDir, engineCfg)
		if err != nil {
			return nil, err
		}
		s.engine = eng
	} else {
		s.engine = dqm.NewEngine(engineCfg)
	}
	// Seed the auto-id counter past any "session-N" recovered from a durable
	// data dir: the counter itself restarts at zero with the process, and
	// without the seed every POST /v1/sessions without an id would 409
	// against the journaled sessions of the previous run.
	for _, id := range s.engine.SessionIDs() {
		if rest, ok := strings.CutPrefix(id, "session-"); ok {
			if n, err := strconv.ParseInt(rest, 10, 64); err == nil && n > s.sessionSeq.Load() {
				s.sessionSeq.Store(n)
			}
		}
	}
	s.setupObservability()
	s.setupHub()
	s.route("GET /healthz", "healthz", s.handleHealth)
	s.route("GET /v1/estimators", "estimators", s.handleEstimators)
	s.route("POST /v1/sessions", "create_session", s.handleCreateSession)
	s.route("GET /v1/sessions", "list_sessions", s.handleListSessions)
	s.route("GET /v1/sessions/{id}", "session_info", s.handleSessionInfo)
	s.route("DELETE /v1/sessions/{id}", "delete_session", s.handleDeleteSession)
	s.route("POST /v1/sessions/{id}/votes", "votes", s.handleAppendVotes)
	s.route("GET /v1/sessions/{id}/estimates", "estimates", s.handleEstimates)
	s.route("GET /v1/sessions/{id}/watch", "watch", s.handleWatch)
	s.route("POST /v1/estimates:batch", "batch_estimates", s.handleBatchEstimates)
	s.route("GET /v1/sessions/{id}/gate", "gate", s.handleGate)
	s.route("PUT /v1/sessions/{id}/policy", "put_policy", s.handlePutPolicy)
	s.route("GET /v1/sessions/{id}/policy", "get_policy", s.handleGetPolicy)
	s.route("DELETE /v1/sessions/{id}/policy", "delete_policy", s.handleDeletePolicy)
	// "/" is less specific than every other pattern, so it takes exactly the
	// requests no route matches under their method. One fixed route label
	// for all of them keeps the label sets bounded whatever paths clients
	// send.
	s.route("/", "unmatched", s.handleUnmatched)
	// Gates for sessions recovered from a durable data dir (their policies
	// ride session meta) and for the server default policy attach now, so the
	// alerting plane is live before the first request.
	for _, id := range s.engine.SessionIDs() {
		if sess, ok := s.engine.Session(id); ok {
			s.ensureGate(sess)
		}
	}
	if cfg.LogStatsInterval > 0 {
		s.stats = s.startStatsLogger(cfg.LogStatsInterval)
	}
	return s, nil
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// allMethods are the request methods handleUnmatched probes, in the sorted
// order an Allow header lists them.
var allMethods = []string{
	http.MethodConnect, http.MethodDelete, http.MethodGet, http.MethodHead, http.MethodOptions,
	http.MethodPatch, http.MethodPost, http.MethodPut, http.MethodTrace,
}

// handleUnmatched answers a request no route matches with the v1 error
// envelope: 405 method_not_allowed when routes match its path under other
// methods, with the Allow header the mux would send without the "/" pattern
// (those methods, GET implying HEAD), else 404 route_not_found.
func (s *server) handleUnmatched(w http.ResponseWriter, r *http.Request) {
	var allow []string
	for _, m := range allMethods {
		if m == r.Method {
			continue
		}
		probe := *r
		probe.Method = m
		if _, pattern := s.mux.Handler(&probe); pattern != "/" {
			allow = append(allow, m)
		}
	}
	if len(allow) > 0 {
		w.Header().Set("Allow", strings.Join(allow, ", "))
		writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "method %s is not allowed on %s", r.Method, r.URL.Path)
		return
	}
	writeError(w, http.StatusNotFound, codeRouteNotFound, "no route for %s %s", r.Method, r.URL.Path)
}

// Close stops the stats logger, every hub pump (so no gate transition fires
// afterwards) and the webhook dispatcher, then flushes a final checkpoint of
// every live session and closes the engine's journals (no-op in memory).
func (s *server) Close() error {
	s.stats.Stop()
	s.hub.Close()
	s.dispatcher.Close()
	return s.engine.Close()
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// decodeBody strictly decodes one JSON object into v. The body is wrapped in
// http.MaxBytesReader (not a silent LimitReader): an oversized body gets a
// clean 413 and the server closes the connection instead of buffering an
// unbounded request into memory.
func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge, "request body exceeds %d bytes", mbe.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, codeInvalidBody, "bad request body: %v", err)
		return false
	}
	return true
}

// session resolves the {id} path value, writing a 404 on a miss. Resolution
// also re-arms the quality gate: a session revived from disk after LRU
// eviction lost its gate with the eviction, and must not serve ingest with
// its alerting plane silently detached (no-op for ungated sessions).
func (s *server) session(w http.ResponseWriter, r *http.Request) (*dqm.Session, bool) {
	id := r.PathValue("id")
	sess, ok := s.engine.Session(id)
	if !ok {
		writeError(w, http.StatusNotFound, codeSessionNotFound, "unknown session %q", id)
		return nil, false
	}
	s.ensureGate(sess)
	return sess, true
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	// Probes and dashboards read operational state here without scraping
	// /metrics: how long the process has been up, where (and how durably) it
	// persists, and how loaded it is.
	health := map[string]any{
		"status":            "ok",
		"sessions":          s.engine.NumSessions(),
		"evictions":         s.engine.Evictions(),
		"durable":           s.engine.Durable(),
		"uptime_seconds":    int64(time.Since(s.started).Seconds()),
		"watch_subscribers": s.watchers.Value(),
	}
	if s.engine.Durable() {
		health["data_dir"] = s.cfg.DataDir
		health["fsync"] = s.cfg.Fsync.String()
		recovered, elapsed := s.engine.BootRecovery()
		health["recovered_sessions"] = recovered
		health["recovery_seconds"] = elapsed.Seconds()
	}
	writeJSON(w, http.StatusOK, health)
}

func (s *server) handleEstimators(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"estimators": dqm.EstimatorNames()})
}

// sessionConfigJSON is the wire form of dqm.Config.
type sessionConfigJSON struct {
	VChaoShift      int               `json:"v_chao_shift,omitempty"`
	TiePolicy       string            `json:"tie_policy,omitempty"` // "tie-flip" | "strict-majority"
	TrendWindow     int               `json:"trend_window,omitempty"`
	CapToPopulation bool              `json:"cap_to_population,omitempty"`
	TrackConfidence bool              `json:"track_confidence,omitempty"`
	Estimators      []string          `json:"estimators,omitempty"`
	Window          *windowConfigJSON `json:"window,omitempty"`
}

// windowConfigJSON is the wire form of dqm.WindowConfig.
type windowConfigJSON struct {
	Size       int     `json:"size"`
	Stride     int     `json:"stride,omitempty"`
	DecayAlpha float64 `json:"decay_alpha,omitempty"`
}

func (c sessionConfigJSON) toConfig() (dqm.Config, error) {
	cfg := dqm.Defaults()
	if c.VChaoShift != 0 {
		cfg.VChaoShift = c.VChaoShift
	}
	switch c.TiePolicy {
	case "", "tie-flip":
	case "strict-majority":
		cfg.TiePolicy = dqm.StrictMajority
	default:
		return cfg, fmt.Errorf("unknown tie_policy %q (want tie-flip or strict-majority)", c.TiePolicy)
	}
	cfg.TrendWindow = c.TrendWindow
	cfg.CapToPopulation = c.CapToPopulation
	cfg.TrackConfidence = c.TrackConfidence
	cfg.Estimators = c.Estimators
	if c.Window != nil {
		w := dqm.WindowConfig{Size: c.Window.Size, Stride: c.Window.Stride, DecayAlpha: c.Window.DecayAlpha}
		if err := w.Validate(); err != nil {
			return cfg, err
		}
		cfg.Window = &w
	}
	return cfg, nil
}

func (s *server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID     string            `json:"id,omitempty"`
		Items  int               `json:"items"`
		Config sessionConfigJSON `json:"config,omitempty"`
	}
	if !s.decodeBody(w, r, &req) {
		return
	}
	cfg, err := req.Config.toConfig()
	if err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidArgument, "%v", err)
		return
	}
	id := req.ID
	auto := id == ""
	var sess *dqm.Session
	// An auto id can still collide (a client created "session-N" by hand, or
	// another server shares the data dir); retry with fresh ids a few times
	// before giving up instead of surfacing a 409 the client cannot act on.
	for attempt := 0; ; attempt++ {
		if auto {
			id = fmt.Sprintf("session-%d", s.sessionSeq.Add(1))
		}
		sess, err = s.engine.CreateSession(id, req.Items, cfg)
		if err == nil {
			break
		}
		exists := strings.Contains(err.Error(), "already exists")
		if auto && exists && attempt < 16 {
			continue
		}
		status, code := http.StatusBadRequest, codeInvalidArgument
		if exists {
			status, code = http.StatusConflict, codeSessionExists
		}
		writeError(w, status, code, "%v", err)
		return
	}
	s.ensureGate(sess)
	writeJSON(w, http.StatusCreated, map[string]any{
		"id":         sess.ID(),
		"items":      sess.NumItems(),
		"estimators": sess.EstimatorNames(),
	})
}

// handleListSessions pages through session ids in lexicographic order.
// ?limit= caps the page (default 1000, max 10000) and ?cursor= resumes after
// the given id; a truncated response carries "next_cursor" (the last id of
// the page), absent on the final page. Cursors are plain session ids, so a
// listing stays correct across concurrent creates/deletes: new ids sort into
// their place and a deleted cursor id still orders the resume point.
func (s *server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	const (
		defaultListLimit = 1000
		maxListLimit     = 10000
	)
	q := r.URL.Query()
	limit := defaultListLimit
	if lq := q.Get("limit"); lq != "" {
		n, err := strconv.Atoi(lq)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, codeInvalidArgument, "bad limit %q (want a positive integer)", lq)
			return
		}
		if limit = n; limit > maxListLimit {
			limit = maxListLimit
		}
	}
	ids := s.engine.SessionIDs()
	sort.Strings(ids)
	if cq := q.Get("cursor"); cq != "" {
		// Resume strictly after the cursor id (SearchStrings finds the first
		// id > cursor whether or not the cursor itself still exists).
		ids = ids[sort.SearchStrings(ids, cq+"\x00"):]
	}
	resp := map[string]any{}
	if len(ids) > limit {
		ids = ids[:limit]
		resp["next_cursor"] = ids[len(ids)-1]
	}
	resp["sessions"] = ids
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	info := map[string]any{
		"id":         sess.ID(),
		"items":      sess.NumItems(),
		"workers":    sess.NumWorkers(),
		"votes":      sess.TotalVotes(),
		"tasks":      sess.Tasks(),
		"estimators": sess.EstimatorNames(),
		"version":    sess.Version(),
		"windowed":   sess.Windowed(),
		"created_at": sess.CreatedAt().UTC().Format(time.RFC3339Nano),
		"last_used":  sess.LastUsed().UTC().Format(time.RFC3339Nano),
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.engine.DeleteSession(id) {
		writeError(w, http.StatusNotFound, codeSessionNotFound, "unknown session %q", id)
		return
	}
	s.hub.Drop(id)
	w.WriteHeader(http.StatusNoContent)
}

// voteJSON is one wire vote.
type voteJSON struct {
	Item   int  `json:"item"`
	Worker int  `json:"worker"`
	Dirty  bool `json:"dirty"`
}

// entryJSON is the votelog interchange form: votes grouped by task id.
type entryJSON struct {
	Task   int  `json:"task"`
	Item   int  `json:"item"`
	Worker int  `json:"worker"`
	Dirty  bool `json:"dirty"`
}

// contentTypeDQMV is the media type of the binary columnar vote-log encoding
// (internal/votelog's DQMV format).
const contentTypeDQMV = votelog.ContentTypeDQMV

func (s *server) handleAppendVotes(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	// Dispatch on the request encoding instead of assuming JSON: binary DQMV
	// bodies take the columnar fast path, JSON (or an absent header) takes the
	// classic path, and anything else is a clean 415 naming what is accepted.
	if ct := r.Header.Get("Content-Type"); ct != "" {
		mt, _, err := mime.ParseMediaType(ct)
		if err != nil {
			writeError(w, http.StatusUnsupportedMediaType, codeUnsupportedMediaType,
				"malformed Content-Type %q (accepted: application/json, %s)", ct, contentTypeDQMV)
			return
		}
		switch mt {
		case contentTypeDQMV:
			s.handleAppendDQMV(w, r, sess)
			return
		case "application/json", "text/json":
		default:
			writeError(w, http.StatusUnsupportedMediaType, codeUnsupportedMediaType,
				"unsupported Content-Type %q (accepted: application/json, %s)", mt, contentTypeDQMV)
			return
		}
	}
	var req struct {
		Votes   []voteJSON  `json:"votes,omitempty"`
		EndTask bool        `json:"end_task,omitempty"`
		Entries []entryJSON `json:"entries,omitempty"`
	}
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Votes) > 0 && len(req.Entries) > 0 {
		writeError(w, http.StatusBadRequest, codeInvalidBatch, "provide either votes or entries, not both")
		return
	}
	if n := len(req.Votes) + len(req.Entries); n == 0 && !req.EndTask {
		writeError(w, http.StatusBadRequest, codeInvalidBatch, "empty batch")
		return
	} else if n > s.cfg.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge, codeBatchTooLarge, "batch of %d votes exceeds limit %d", n, s.cfg.MaxBatch)
		return
	}

	tasksDone := 0
	votesApplied := 0
	if len(req.Entries) > 0 {
		// Replay with a task boundary at every task-id change and after the
		// final entry (the votelog contract). Atomicity is per task: each
		// task's votes are validated and applied as one batch, so a bad entry
		// fails before its own task is applied — but tasks flushed earlier in
		// the request stay applied. The error response therefore reports what
		// actually landed ("ingested", "tasks_ended"), so clients resume from
		// the failure point instead of re-sending applied tasks.
		batch := make([]dqm.Vote, 0, len(req.Entries))
		flush := func() error {
			if err := sess.AppendVotes(batch, true); err != nil {
				return err
			}
			tasksDone++
			votesApplied += len(batch)
			batch = batch[:0]
			return nil
		}
		for i, e := range req.Entries {
			if i > 0 && req.Entries[i-1].Task != e.Task {
				if err := flush(); err != nil {
					writePartialIngest(w, sess, err, votesApplied, tasksDone)
					return
				}
			}
			batch = append(batch, dqm.Vote{Item: e.Item, Worker: e.Worker, Dirty: e.Dirty})
		}
		if err := flush(); err != nil {
			writePartialIngest(w, sess, err, votesApplied, tasksDone)
			return
		}
	} else {
		batch := make([]dqm.Vote, len(req.Votes))
		for i, v := range req.Votes {
			batch[i] = dqm.Vote{Item: v.Item, Worker: v.Worker, Dirty: v.Dirty}
		}
		if err := sess.AppendVotes(batch, req.EndTask); err != nil {
			writeError(w, ingestStatus(err), ingestCode(err), "%v", err)
			return
		}
		votesApplied = len(req.Votes)
		if req.EndTask {
			tasksDone = 1
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ingested":    votesApplied,
		"tasks_ended": tasksDone,
		"total_votes": sess.TotalVotes(),
		"tasks":       sess.Tasks(),
	})
}

// handleAppendDQMV ingests a binary DQMV vote log through
// dqm.Session.AppendDQMV: each task is decoded once into columns, journaled
// from them as one WAL block record, and the whole request pays one
// durability wait. The body is split here only for the empty-batch and
// batch-size checks. Task boundaries match the {"entries": ...} rule, so both
// encodings yield byte-identical estimates. An invalid task reports the tasks
// applied before it, as the entries path does; a journal fault applies
// nothing.
func (s *server) handleAppendDQMV(w http.ResponseWriter, r *http.Request, sess *dqm.Session) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge, "request body exceeds %d bytes", mbe.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, codeInvalidBody, "reading request body: %v", err)
		return
	}
	blocks, err := votelog.SplitBinaryTasks(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidBatch, "%v", err)
		return
	}
	if len(blocks) == 0 {
		writeError(w, http.StatusBadRequest, codeInvalidBatch, "empty batch")
		return
	}
	total := 0
	for _, b := range blocks {
		total += b.Votes
	}
	if total > s.cfg.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge, codeBatchTooLarge, "batch of %d votes exceeds limit %d", total, s.cfg.MaxBatch)
		return
	}
	votesApplied, tasksDone, err := sess.AppendDQMV(body)
	if err != nil {
		writePartialIngest(w, sess, err, votesApplied, tasksDone)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ingested":    votesApplied,
		"tasks_ended": tasksDone,
		"total_votes": sess.TotalVotes(),
		"tasks":       sess.Tasks(),
	})
}

// ingestStatus classifies an ingest failure: journal (disk) faults are the
// server's problem, everything else is the request's.
func ingestStatus(err error) int {
	switch {
	case dqm.IsJournalError(err):
		return http.StatusServiceUnavailable
	case errors.Is(err, dqm.ErrBatchTooLarge):
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// writePartialIngest reports an entries-batch failure together with the
// tasks/votes that were already applied (per-task atomicity: completed tasks
// are not rolled back). The progress counters ride the envelope's details so
// clients resume from the exact failure point.
func writePartialIngest(w http.ResponseWriter, sess *dqm.Session, err error, votesApplied, tasksDone int) {
	writeErrorDetails(w, ingestStatus(err), ingestCode(err), map[string]any{
		"ingested":    votesApplied,
		"tasks_ended": tasksDone,
		"total_votes": sess.TotalVotes(),
		"tasks":       sess.Tasks(),
	}, "%v", err)
}

// estimatesJSON is the wire form of dqm.Estimates.
type estimatesJSON struct {
	Nominal   float64    `json:"nominal"`
	Voting    float64    `json:"voting"`
	Chao92    float64    `json:"chao92"`
	VChao92   float64    `json:"v_chao92"`
	Switch    switchJSON `json:"switch"`
	Remaining float64    `json:"remaining"`
	Tasks     int64      `json:"tasks"`
	Votes     int64      `json:"votes"`
	// Version is the session's mutation counter at (or just before) the
	// read; pass it back as the watch cursor to resume change detection.
	Version  uint64      `json:"version"`
	Window   *windowJSON `json:"window,omitempty"`
	SwitchCI *ciJSON     `json:"switch_ci,omitempty"`
}

// windowJSON describes which task span a windowed estimate covers.
type windowJSON struct {
	Kind      string `json:"kind"`
	StartTask int64  `json:"start_task"`
	EndTask   int64  `json:"end_task"`
	Tasks     int64  `json:"tasks"`
	Complete  bool   `json:"complete"`
}

type switchJSON struct {
	Total             float64 `json:"total"`
	XiPos             float64 `json:"xi_pos"`
	XiNeg             float64 `json:"xi_neg"`
	RemainingSwitches float64 `json:"remaining_switches"`
	Trend             string  `json:"trend"`
}

type ciJSON struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Level float64 `json:"level"`
}

func estimatesBody(e dqm.Estimates) estimatesJSON {
	trend := "flat"
	if e.Switch.TrendUp {
		trend = "up"
	} else if e.Switch.TrendDown {
		trend = "down"
	}
	return estimatesJSON{
		Nominal: e.Nominal,
		Voting:  e.Voting,
		Chao92:  e.Chao92,
		VChao92: e.VChao92,
		Switch: switchJSON{
			Total:             e.Switch.Total,
			XiPos:             e.Switch.XiPos,
			XiNeg:             e.Switch.XiNeg,
			RemainingSwitches: e.Switch.RemainingSwitches,
			Trend:             trend,
		},
		Remaining: e.Remaining(),
	}
}

func estimatesToJSON(sess *dqm.Session) estimatesJSON {
	// Version is read BEFORE the estimates: if the session mutates between
	// the two loads the payload may be newer than the version, so a watcher
	// resuming from it re-delivers rather than skips (at-least-once).
	v := sess.Version()
	out := estimatesBody(sess.Estimates())
	out.Tasks = sess.Tasks()
	out.Votes = sess.TotalVotes()
	out.Version = v
	return out
}

// windowedToJSON evaluates one windowed view of the session.
func windowedToJSON(sess *dqm.Session, kind dqm.WindowKind) (estimatesJSON, error) {
	v := sess.Version()
	we, err := sess.WindowEstimates(kind)
	if err != nil {
		return estimatesJSON{}, err
	}
	out := estimatesBody(we.Estimates)
	out.Tasks = sess.Tasks()
	out.Votes = sess.TotalVotes()
	out.Version = v
	out.Window = &windowJSON{
		Kind:      we.Kind.String(),
		StartTask: we.Start,
		EndTask:   we.End,
		Tasks:     we.Tasks,
		Complete:  we.Complete,
	}
	return out, nil
}

func (s *server) handleEstimates(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	if q.Get("ci") == "" {
		// Plain and windowed reads ride the hub's encode-once payload cache
		// and the ETag conditional-read plane; only the bootstrap-CI read —
		// fresh randomized compute by definition — bypasses it below.
		view := hub.ViewAll
		if wq := q.Get("window"); wq != "" {
			kind, err := dqm.ParseWindowKind(wq)
			if err != nil {
				writeError(w, http.StatusBadRequest, codeInvalidArgument, "%v", err)
				return
			}
			view = viewForKind(kind)
		}
		// 304 pre-check before touching the cache: the client's tag matching
		// the live version proves the payload it holds is current, whatever
		// view it is — version guards them all.
		etag := `"` + strconv.FormatUint(sess.Version(), 10) + `"`
		if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
			w.Header().Set("ETag", etag)
			w.WriteHeader(http.StatusNotModified)
			return
		}
		body, version, err, ok := s.hub.Payload(sess.ID(), view)
		if !ok {
			writeError(w, http.StatusNotFound, codeSessionNotFound, "unknown session %q", sess.ID())
			return
		}
		if err != nil {
			if errors.Is(err, errEncode) {
				writeError(w, http.StatusInternalServerError, codeInternal, "%v", err)
			} else {
				// Windowed view without data yet (or no window config).
				writeError(w, http.StatusConflict, codeWindowNotReady, "%v", err)
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("ETag", `"`+strconv.FormatUint(version, 10)+`"`)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
		_, _ = w.Write([]byte{'\n'})
		return
	}
	if q.Get("window") != "" {
		writeError(w, http.StatusBadRequest, codeInvalidArgument, "ci is not supported on windowed estimates")
		return
	}
	out := estimatesToJSON(sess)
	if q := r.URL.Query().Get("ci"); q != "" {
		level, err := strconv.ParseFloat(q, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeInvalidArgument, "bad ci level %q", q)
			return
		}
		reps := 200
		if rq := r.URL.Query().Get("replicates"); rq != "" {
			if reps, err = strconv.Atoi(rq); err != nil {
				writeError(w, http.StatusBadRequest, codeInvalidArgument, "bad replicates %q", rq)
				return
			}
		}
		// The bootstrap resamples off the session lock (ingest proceeds
		// concurrently), but each replicate still costs O(N) compute; an
		// unbounded count would let one request monopolize the CI workers.
		if reps > estimator.MaxReplicates {
			writeError(w, http.StatusBadRequest, codeInvalidArgument, "replicates %d exceeds limit %d", reps, estimator.MaxReplicates)
			return
		}
		ci, err := sess.SwitchCI(reps, level)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeInvalidArgument, "%v", err)
			return
		}
		out.SwitchCI = &ciJSON{Lo: ci.Lo, Hi: ci.Hi, Level: ci.Level}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleWatch streams estimate updates over Server-Sent Events: whenever the
// session's mutation version advances past the subscriber's cursor, one
// `estimates` event carrying the usual estimates JSON (id: the new version)
// is pushed. The stream rides the fan-out hub (internal/hub): the payload is
// encoded once per published version and multicast pre-serialized, wakeups
// are event-driven off the engine's version notifier (idle sessions cost
// zero CPU regardless of subscriber count), and a slow subscriber coalesces
// to the latest version instead of queueing or blocking others. Clients
// resume with ?cursor=<last seen version> (or the standard Last-Event-ID
// header) and may RAISE the coalescing interval with ?min_interval= (the
// server flag is the floor). ?window= streams a windowed view instead of the
// all-time estimate. Write errors and write-deadline expiries terminate the
// stream immediately — a dead peer is evicted, not spun on.
func (s *server) handleWatch(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.session(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, codeInternal, "streaming unsupported by connection")
		return
	}
	q := r.URL.Query()
	view := hub.ViewAll
	if wq := q.Get("window"); wq != "" {
		kind, err := dqm.ParseWindowKind(wq)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeInvalidArgument, "%v", err)
			return
		}
		view = viewForKind(kind)
		// Reject structurally impossible streams before committing to SSE: a
		// session without windows (or without a decay aggregate) can never
		// produce an event, and a silent 200 that only heartbeats would be
		// indistinguishable from a healthy idle stream. "No completed window
		// yet" is the one genuinely transient case and stays silent below.
		wcfg, ok := sess.WindowConfig()
		if !ok {
			writeError(w, http.StatusConflict, codeWindowNotReady, "session %q has no window configuration", sess.ID())
			return
		}
		if kind == dqm.WindowDecayed && wcfg.DecayAlpha == 0 {
			writeError(w, http.StatusConflict, codeWindowNotReady, "session %q has no decayed aggregate (decay_alpha is 0)", sess.ID())
			return
		}
	}
	interval := s.cfg.WatchMinInterval
	if iq := q.Get("min_interval"); iq != "" {
		d, err := time.ParseDuration(iq)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeInvalidArgument, "bad min_interval %q", iq)
			return
		}
		if d > interval {
			interval = d
		}
	}
	var cursor uint64
	cursorQ := q.Get("cursor")
	if cursorQ == "" {
		cursorQ = r.Header.Get("Last-Event-ID")
	}
	if cursorQ != "" {
		c, err := strconv.ParseUint(cursorQ, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeInvalidArgument, "bad cursor %q", cursorQ)
			return
		}
		cursor = c
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	// Flush the headers immediately: a subscriber to an idle session must see
	// the stream open now, not at the first event or heartbeat.
	fl.Flush()
	s.watchers.Inc()
	defer s.watchers.Dec()

	// Subscribing by id (not by the resolved *Session) ties the stream to the
	// hub's lifecycle: DELETE or LRU eviction Drops the hub session, ending
	// every stream rather than leaving it pinned to a detached object.
	sub, ok := s.hub.Subscribe(sess.ID(), view, cursor, interval)
	if !ok {
		// The session vanished between validation and subscription.
		return
	}
	defer sub.Close()

	// Dead peers must be evicted at the next write, not discovered whenever
	// the OS send buffer finally fills: every write arms a deadline covering
	// at least one heartbeat period. Writers without deadline support (tests,
	// exotic wrappers) still get write-error termination.
	rc := http.NewResponseController(w)
	const writeGrace = 2 * 15 * time.Second
	for {
		ev, ok := sub.Next(r.Context())
		if !ok {
			// Context canceled, session deleted, or session evicted.
			return
		}
		if err := rc.SetWriteDeadline(time.Now().Add(writeGrace)); err != nil && !errors.Is(err, http.ErrNotSupported) {
			return
		}
		if _, err := w.Write(ev.SSE); err != nil {
			return
		}
		if err := rc.Flush(); err != nil {
			return
		}
	}
}

// handleBatchEstimates serves dashboard readers: one POST returns the
// current estimates of many sessions at once, each read riding the
// per-session cache. Unknown ids are reported in "missing" instead of
// failing the whole batch.
func (s *server) handleBatchEstimates(w http.ResponseWriter, r *http.Request) {
	var req struct {
		IDs    []string `json:"ids"`
		Window string   `json:"window,omitempty"`
	}
	if !s.decodeBody(w, r, &req) {
		return
	}
	const maxBatchIDs = 10000
	if len(req.IDs) == 0 {
		writeError(w, http.StatusBadRequest, codeInvalidArgument, "empty ids")
		return
	}
	if len(req.IDs) > maxBatchIDs {
		writeError(w, http.StatusRequestEntityTooLarge, codeBatchTooLarge, "batch of %d ids exceeds limit %d", len(req.IDs), maxBatchIDs)
		return
	}
	view := hub.ViewAll
	if req.Window != "" {
		kind, err := dqm.ParseWindowKind(req.Window)
		if err != nil {
			writeError(w, http.StatusBadRequest, codeInvalidArgument, "%v", err)
			return
		}
		view = viewForKind(kind)
	}
	// Each read rides the hub's encode-once payload cache: an unchanged
	// session contributes its cached bytes verbatim (json.RawMessage), so a
	// dashboard sweeping thousands of mostly-idle sessions re-encodes none
	// of them.
	results := make(map[string]json.RawMessage, len(req.IDs))
	seen := make(map[string]struct{}, len(req.IDs))
	var missing []string
	errs := make(map[string]string)
	for _, id := range req.IDs {
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		body, _, err, ok := s.hub.Payload(id, view)
		if !ok {
			missing = append(missing, id)
			continue
		}
		if err != nil {
			errs[id] = err.Error()
			continue
		}
		results[id] = json.RawMessage(body)
	}
	resp := map[string]any{"results": results}
	if len(missing) > 0 {
		resp["missing"] = missing
	}
	if len(errs) > 0 {
		resp["errors"] = errs
	}
	writeJSON(w, http.StatusOK, resp)
}
