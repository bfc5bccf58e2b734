package engine

import "dqm/internal/metrics"

// Engine-plane instruments, registered on the shared Default registry and
// cumulative across every engine in the process (dqm-serve runs one; tests
// may run many — counters only ever add, so that composes). Per-engine state
// such as the live-session count is exposed by the serving layer as a gauge
// over Engine.Len instead, where one engine's identity is known.
//
// Everything incremented on the ingest or read hot path is a bare atomic
// add: the 0-alloc guarantees of Append and the cached Estimates read are
// load-bearing (see BenchmarkSessionIngest / BenchmarkEstimatesCached).
var (
	metricVotes = metrics.Default.Counter("dqm_engine_votes_total",
		"Votes ingested across all sessions (live and recovery replay are not double-counted; replay does not increment).")
	metricBatches = metrics.Default.Counter("dqm_engine_append_batches_total",
		"Ingest batches applied (one engine Append call each).")
	metricTasks = metrics.Default.Counter("dqm_engine_tasks_total",
		"Task boundaries marked across all sessions.")
	metricEstimateHits = metrics.Default.Counter("dqm_engine_estimate_cache_hits_total",
		"Estimate reads copied lock-free from the session's published slot.")
	metricEstimateMisses = metrics.Default.Counter("dqm_engine_estimate_cache_misses_total",
		"Estimate reads evaluated under the session mutex (the slot did not hold the version read).")
	metricSessionsCreated = metrics.Default.Counter("dqm_engine_sessions_created_total",
		"Sessions created (excluding recovery and revival).")
	metricSessionsRecovered = metrics.Default.Counter("dqm_engine_sessions_recovered_total",
		"Sessions rebuilt from their journals (boot recovery and on-demand revival).")
	metricSessionLoads = metrics.Default.Counter("dqm_engine_session_loads_total",
		"Evicted-or-cold sessions revived from disk via Load/GetOrLoad.")
	metricLoadsInflight = metrics.Default.Gauge("dqm_engine_loads_inflight",
		"Cold session loads currently replaying a journal. With per-id load singleflight, distinct sessions replay concurrently, so this can exceed 1.")
	metricRecoverySeconds = metrics.Default.Histogram("dqm_engine_recovery_seconds",
		"Per-session journal replay duration (boot recovery and on-demand loads).",
		metrics.DurationBuckets)
	metricEvictions = metrics.Default.Counter("dqm_engine_evictions_total",
		"Sessions dropped from memory by the MaxSessions LRU policy.")
	metricSessionsDeleted = metrics.Default.Counter("dqm_engine_sessions_deleted_total",
		"Sessions removed by explicit Delete.")
	metricResets = metrics.Default.Counter("dqm_engine_resets_total",
		"Session resets applied.")

	metricBootstrapSeconds = metrics.Default.Histogram("dqm_engine_bootstrap_seconds",
		"Off-mutex bootstrap confidence-interval compute duration (capture and cache bookkeeping excluded).",
		metrics.DurationBuckets)
)
