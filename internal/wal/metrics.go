package wal

import "dqm/internal/metrics"

// WAL-plane instruments on the shared Default registry, cumulative across
// every journal in the process. The append path is a hot path with a 0-alloc
// guarantee (BenchmarkJournalAppend): everything recorded per batch is an
// atomic add or a fixed-bucket histogram observation, both allocation-free.
var (
	metricFrames = metrics.Default.Counter("dqm_wal_append_frames_total",
		"Batches staged into journals (one engine batch, task block, task end or reset each); a flush seals every batch staged since the last into one frame.")
	metricAppendSeconds = metrics.Default.Histogram("dqm_wal_append_seconds",
		"Journal append latency: encoding the batch into the open frame plus any flush, rotation or compaction it triggered (not the durability wait; see dqm_wal_commit_wait_seconds).",
		metrics.DurationBuckets)
	metricCommitWaitSeconds = metrics.Default.Histogram("dqm_wal_commit_wait_seconds",
		"Durability wait per FsyncAlways commit: parked on the group-commit syncer, or syncing directly once it has stopped. A multi-task binary request commits once, however many frames it staged.",
		metrics.DurationBuckets)
	metricFlushedBytes = metrics.Default.Counter("dqm_wal_flushed_bytes_total",
		"Journal bytes handed to the OS (user-space group-commit buffer drains).")
	metricFsyncs = metrics.Default.Counter("dqm_wal_fsyncs_total",
		"fsync calls on active segments.")
	metricFsyncSeconds = metrics.Default.Histogram("dqm_wal_fsync_seconds",
		"fsync latency on active segments.", metrics.DurationBuckets)
	metricRotations = metrics.Default.Counter("dqm_wal_segment_rotations_total",
		"Active segments sealed and replaced (SegmentBytes threshold crossings).")
	metricCompactions = metrics.Default.Counter("dqm_wal_compactions_total",
		"Snapshot compactions completed (sealed segments + old snapshot folded into one).")
	metricCompactionSeconds = metrics.Default.Histogram("dqm_wal_compaction_seconds",
		"Snapshot compaction wall time.", metrics.DurationBuckets)
	metricWriteErrors = metrics.Default.Counter("dqm_wal_write_errors_total",
		"Write/fsync failures that put a journal into its sticky error state.")
	// metricGroupCommitSessions is observed once per non-empty syncer pass
	// with the number of journals (≈ sessions) the pass covered: the
	// group-commit amortization factor. A fixed count ladder, so Observe
	// stays a lock-free atomic add on the ingest-adjacent path.
	metricGroupCommitSessions = metrics.Default.Histogram("dqm_wal_group_commit_sessions",
		"Journals flushed per group-commit syncer pass (sessions sharing one fsync round).",
		GroupCommitBuckets)
	metricSyncWaiters = metrics.Default.Gauge("dqm_wal_sync_waiters",
		"Appends currently parked on the group-commit syncer (FsyncAlways committers awaiting their pass).")
)

// GroupCommitBuckets ladders session counts per pass: 1 (no batching win)
// through thousands of sessions sharing a pass.
var GroupCommitBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096}
