// Package wal is the durability layer under the session engine: a per-session
// write-ahead vote journal plus snapshot compaction, so the estimate a
// cleaning pipeline consults while cleaning is in flight survives process
// restarts.
//
// Layout: one directory per session (Store maps session ids to directories),
// holding
//
//	meta.json          immutable session metadata (id, population, config)
//	wal-<seq>.seg      journal segments, appended in seq order
//	snap-<seq>.bin     one snapshot covering segments 1..seq
//
// A segment is a 5-byte header (magic "DQMW", version 1) followed by frames.
// Each frame is one flush of the journal's group-commit buffer: every batch
// staged since the previous flush — a Stage call per engine batch (an Append,
// or one task block of an AppendLog), and Resets — encoded as
//
//	uvarint(len(payload)) | crc32c(payload) LE | payload
//
// Frames are sealed only when the buffer drains (64 KiB overflow, a syncer
// pass, Sync, rotation, Checkpoint, Close), and so always between batches.
// A payload is a sequence of records: opSorted, a batch's votes sorted by
// item (an opcode carrying the Rice parameter k that makes the record
// shortest; a varint of the count, whether the votes share their worker and
// whether a task boundary follows them; the worker once when shared; each
// item's gap from the one before as gap>>k zero bits, a one bit and gap's
// low k bits, followed by the vote's dirty bit; then each vote's worker
// when they differ); opEnd, a bare task boundary; opReset; opWindow start —
// a windowed session's rotation, always in the same frame as the boundary
// that sealed it, so task boundaries and their window rotations are
// crash-atomic. Every write path stages a []votes.Vote batch, which Stage
// writes as opSorted; the opVote, opColumns, opBlock and opPacked vote
// records of earlier builds stay readable, so their data dirs recover, and
// replay decodes every vote record, whatever its item or worker, into the
// one batch shape Hooks.Votes receives. A torn or corrupt frame at the tail of the final segment marks
// the end of durable history: recovery replays every intact frame
// before it and truncates the rest, so the journal never admits a gap. A
// final segment whose header is a torn prefix of the magic (or zeros) was
// never written to and is recreated; any other unknown header, and
// corruption anywhere else, is reported as an error instead of being skipped
// silently, and the file is left as it is.
//
// A snapshot is the same record stream, sealed: header (magic "DQMS",
// version 1), records, and a trailing whole-file CRC. Compaction rewrites
// snapshot + sealed segments into a new snapshot (dropping everything before
// the last opReset, and rewriting votes of any encoding as opSorted records)
// and deletes the covered files; because the snapshot is a literal record
// stream replayed through the same code path as live ingest, and replay
// keeps each item's votes in order (which is all session state depends on),
// recovered estimator state is bit-identical to an uninterrupted run. Recovery removes
// only snapshots older than the one it replayed: a newer one that fails its
// checksum stays on disk and is named in the error if recovery cannot
// complete without it. The compaction threshold doubles with the snapshot
// (journal must outgrow the snapshot before a rewrite), keeping total
// compaction I/O linear-ish in the ingested volume.
package wal

import "time"

// FsyncPolicy selects when journal writes are flushed to stable storage.
type FsyncPolicy int

const (
	// FsyncBatch (the default) group-commits: batches accumulate in a
	// user-space buffer that drains to the OS on overflow, and the store's
	// shared Syncer fsyncs every dirty journal at least once per
	// BatchInterval (and always on rotation, checkpoint and close). A crash
	// loses at most roughly the last interval of acknowledged votes.
	FsyncBatch FsyncPolicy = iota
	// FsyncAlways seals and fsyncs every staged batch before the commit that
	// covers it returns. Nothing acknowledged is ever lost. Commits park on
	// the store's Syncer, so concurrent sessions share fsync rounds
	// (cross-session group commit) instead of each paying device sync
	// latency alone, and a multi-task request stages all its batches and
	// parks once.
	FsyncAlways
	// FsyncNever leaves fsync to the OS: frames are still handed to the
	// kernel (on buffer overflow, or by the store Syncer's periodic drain),
	// but nothing forces them to the device. An OS crash may lose
	// everything since the last rotation/checkpoint; a clean Close still
	// syncs.
	FsyncNever
)

// String implements fmt.Stringer.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncBatch:
		return "batch"
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	default:
		return "unknown"
	}
}

// Options parameterizes a Store and the journals it opens.
type Options struct {
	// Fsync selects the flush policy (default FsyncBatch).
	Fsync FsyncPolicy
	// BatchInterval is the maximum fsync staleness under FsyncBatch;
	// 0 selects 100ms.
	BatchInterval time.Duration
	// SegmentBytes rotates the active segment beyond this size; 0 selects
	// 4 MiB.
	SegmentBytes int64
	// CompactAfter is the minimum sealed-journal volume before a snapshot
	// rewrite; 0 selects 8 MiB. Compaction additionally waits until the
	// sealed journal outgrows the current snapshot, so rewrite work stays
	// amortized.
	CompactAfter int64
}

// withDefaults fills the zero values.
func (o Options) withDefaults() Options {
	if o.BatchInterval <= 0 {
		o.BatchInterval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.CompactAfter <= 0 {
		o.CompactAfter = 8 << 20
	}
	return o
}
