package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dqm/internal/votes"
)

// ErrClosed is returned by operations on a closed (or evicted) journal.
var ErrClosed = errors.New("wal: journal closed")

// Journal is the write-ahead log of one session: an active segment receiving
// group-committed frames, zero or more sealed segments, and at most one
// snapshot covering everything before them. The session engine serializes
// calls (the journal is written under the session mutex); the journal's own
// mutex exists for the store's Syncer, which flushes and fsyncs dirty
// journals from its own goroutine.
type Journal struct {
	dir  string
	opts Options

	// sy is the store-wide group-commit syncer that applies the fsync policy
	// to committed frames.
	sy *Syncer
	// queued marks the journal as enqueued for the syncer's next pass; the
	// syncer clears it when it snapshots the queue. Lock-free so MarkDirty
	// stays off the syncer lock on the already-queued fast path.
	queued atomic.Bool

	// mu guards all file and buffer state below. Appends hold it only for
	// the in-memory work (frame encode, buffer drain, rotation); FsyncAlways
	// appends park on the syncer after releasing it, so a parked committer
	// never blocks the pass that will cover it.
	mu sync.Mutex

	f    *os.File // active segment
	seq  uint64   // active segment sequence number
	size int64    // bytes written (flushed) to the active segment

	// wbuf accumulates committed frames not yet handed to the OS: the
	// user-space half of group commit. It drains on flushChunk overflow,
	// Sync, rotation, Close, and every syncer pass that covers this journal.
	// Under FsyncAlways a commit does not return before a pass drained and
	// fsynced it, so nothing acknowledged ever sits here; under
	// FsyncBatch/FsyncNever a crash can lose it, which those policies
	// permit by contract.
	wbuf []byte

	snapSeq     uint64 // highest segment covered by the snapshot (0 = none)
	snapBytes   int64  // size of the current snapshot file
	sealedBytes int64  // bytes in sealed segments not yet compacted

	// err is sticky: after any write failure the journal refuses further
	// appends, because bytes may have reached the file without being framed —
	// appending more frames after them would put intact frames beyond a torn
	// one, which recovery (correctly) refuses to read past.
	err error

	dirty bool // unsynced frames in the active segment

	buf []byte // payload scratch, reused across appends
}

func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d.seg", seq))
}

func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016d.bin", seq))
}

// createSegment opens a fresh segment file and writes its header.
func createSegment(dir string, seq uint64) (*os.File, int64, error) {
	f, err := os.OpenFile(segPath(dir, seq), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, 0, err
	}
	if _, err := f.Write(segMagic); err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, int64(len(segMagic)), nil
}

// Append write-ahead-logs one engine batch (the group-commit unit): the
// votes, plus a task boundary when endTask is set. It must be called before
// the batch is applied to in-memory state.
func (j *Journal) Append(batch []votes.Vote, endTask bool) error {
	if len(batch) == 0 && !endTask {
		return nil
	}
	if err := j.lock(); err != nil {
		return err
	}
	payload := j.buf[:0]
	for _, v := range batch {
		payload = appendVote(payload, v)
	}
	if endTask {
		payload = append(payload, opEnd)
	}
	j.buf = payload
	return j.stageCommit(payload)
}

// AppendRotation logs one engine batch, its task boundary, and the window
// rotation that boundary seals — as ONE frame, so a torn tail can never
// separate a task end from the rotation it fired: recovery either sees both
// or neither, and replayed window boundaries always match an uninterrupted
// run. windowStart is the first completed-task index of the sealed window.
func (j *Journal) AppendRotation(batch []votes.Vote, windowStart int64) error {
	if err := j.lock(); err != nil {
		return err
	}
	payload := j.buf[:0]
	for _, v := range batch {
		payload = appendVote(payload, v)
	}
	payload = append(payload, opEnd)
	payload = appendWindow(payload, windowStart)
	j.buf = payload
	return j.stageCommit(payload)
}

// StageColumns writes one columnar batch into the group-commit buffer as one
// frame, without applying the fsync policy: raw pre-encoded DQMV vote records
// ('V' opcode streams, see internal/votelog) journaled verbatim as a single
// opColumns record — no per-vote re-encode, the bytes that came off the wire
// are the bytes that hit the log. The caller must have validated the raw
// stream (encoding and item bounds) first: the journal must never hold a
// record replay would reject. endTask appends a task boundary in the same
// frame; windowStart >= 0 additionally appends the window rotation that
// boundary seals (pass -1 for none). A staged frame is durable only after the
// next Commit returns, so a multi-task write stages every task and commits
// once before applying any of them.
func (j *Journal) StageColumns(raw []byte, endTask bool, windowStart int64) error {
	if len(raw) == 0 && !endTask {
		return nil
	}
	if err := j.lock(); err != nil {
		return err
	}
	payload := j.buf[:0]
	if len(raw) > 0 {
		payload = appendColumns(payload, raw)
	}
	if endTask {
		payload = append(payload, opEnd)
		if windowStart >= 0 {
			payload = appendWindow(payload, windowStart)
		}
	}
	j.buf = payload
	return j.stage(payload)
}

// Reset logs a session reset. The next compaction discards everything before
// it.
func (j *Journal) Reset() error {
	if err := j.lock(); err != nil {
		return err
	}
	return j.stageCommit([]byte{opReset})
}

// lock takes j.mu for an append, unless the journal is in its sticky error
// state, which it returns instead with j.mu released.
func (j *Journal) lock() error {
	j.mu.Lock()
	if j.err != nil {
		err := j.err
		j.mu.Unlock()
		return err
	}
	return nil
}

// flushChunk drains the user-space frame buffer to the OS once it exceeds
// this size, bounding both memory and write-syscall frequency.
const flushChunk = 64 << 10

// stage commits one frame into the group-commit buffer. Called with j.mu
// held; unlocks it.
func (j *Journal) stage(payload []byte) error {
	start := time.Now()
	err := j.commitLocked(payload)
	j.mu.Unlock()
	metricFrames.Inc()
	metricAppendSeconds.ObserveSince(start)
	return err
}

// stageCommit is stage followed by Commit: the single-frame append. Called
// with j.mu held; unlocks it before any syncer interaction, so a parked
// committer cannot deadlock the pass that must flush its journal.
func (j *Journal) stageCommit(payload []byte) error {
	if err := j.stage(payload); err != nil {
		return err
	}
	return j.Commit()
}

// Commit applies the fsync policy to every frame staged since the last
// Commit. Under FsyncAlways it parks until a syncer pass has flushed and
// fsynced them — one wait however many frames were staged, shared with every
// other journal committing in the same pass — and returns the journal's
// sticky error if that failed. Under FsyncBatch and FsyncNever it enqueues
// the journal for the syncer's next pass and returns at once.
func (j *Journal) Commit() error {
	if j.opts.Fsync != FsyncAlways {
		j.sy.MarkDirty(j)
		return nil
	}
	start := time.Now()
	err := j.sy.Commit(j)
	metricCommitWaitSeconds.ObserveSince(start)
	return err
}

// commitLocked appends one frame to the group-commit buffer, rotating and
// compacting when thresholds are crossed. Call with j.mu held.
func (j *Journal) commitLocked(payload []byte) error {
	j.wbuf = appendFrame(j.wbuf, payload)
	j.dirty = true
	if len(j.wbuf) >= flushChunk {
		if err := j.flushLocked(); err != nil {
			return err
		}
	}
	if j.size+int64(len(j.wbuf)) >= j.opts.SegmentBytes {
		if err := j.rotateLocked(); err != nil {
			return err
		}
		if j.sealedBytes >= j.opts.CompactAfter && j.sealedBytes >= j.snapBytes {
			if err := j.compactLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flushLocked drains buffered frames to the OS without fsyncing. Syncer
// passes call it under FsyncNever so acknowledged frames cannot sit in
// process memory indefinitely. Call with j.mu held.
func (j *Journal) flushLocked() error {
	if len(j.wbuf) == 0 {
		return nil
	}
	n, err := j.f.Write(j.wbuf)
	if err != nil {
		j.err = fmt.Errorf("wal: append: %w", err)
		metricWriteErrors.Inc()
		return j.err
	}
	j.size += int64(n)
	j.wbuf = j.wbuf[:0]
	metricFlushedBytes.Add(uint64(n))
	return nil
}

// Sync flushes buffered frames and fsyncs the active segment.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	return j.syncLocked()
}

// syncLocked flushes and fsyncs. Call with j.mu held.
func (j *Journal) syncLocked() error {
	if err := j.flushLocked(); err != nil {
		return err
	}
	if j.dirty {
		start := time.Now()
		err := j.f.Sync()
		metricFsyncs.Inc()
		metricFsyncSeconds.ObserveSince(start)
		if err != nil {
			j.err = fmt.Errorf("wal: fsync: %w", err)
			metricWriteErrors.Inc()
			return j.err
		}
		j.dirty = false
	}
	return nil
}

// rotateLocked seals the active segment and starts the next one. Rotation
// fsyncs directly (not through the syncer): a sealed segment must be fully
// durable before its successor exists. Call with j.mu held.
func (j *Journal) rotateLocked() error {
	if err := j.syncLocked(); err != nil {
		return err
	}
	if err := j.f.Close(); err != nil {
		j.err = fmt.Errorf("wal: rotate: %w", err)
		return j.err
	}
	j.sealedBytes += j.size
	f, size, err := createSegment(j.dir, j.seq+1)
	if err != nil {
		j.err = fmt.Errorf("wal: rotate: %w", err)
		return j.err
	}
	j.f, j.size = f, size
	j.seq++
	metricRotations.Inc()
	return nil
}

// compactLocked rewrites snapshot + sealed segments into one new snapshot and
// deletes the files it covers. Everything before the last opReset is dropped
// — that is the only place journal history actually shrinks; otherwise the
// snapshot is the full (compactly re-encoded) record stream, which replays
// through the same ingest path as live votes and is therefore bit-identical
// by construction. Columnar records are re-encoded per vote here — snapshots
// are the compact form by contract, and compaction is a cold path.
// Call with j.mu held.
func (j *Journal) compactLocked() error {
	if j.err != nil {
		return j.err
	}
	through := j.seq - 1 // everything sealed; the active segment stays
	if through == 0 || through == j.snapSeq {
		return nil
	}
	start := time.Now()
	body := make([]byte, 0, j.snapBytes+j.sealedBytes)
	appendHooks := Hooks{
		Vote: func(item, worker int, dirty bool) error {
			label := votes.Clean
			if dirty {
				label = votes.Dirty
			}
			body = appendVote(body, votes.Vote{Item: item, Worker: worker, Label: label})
			return nil
		},
		EndTask: func() { body = append(body, opEnd) },
		Reset:   func() { body = body[:0] },
		Window: func(start int64) error {
			body = appendWindow(body, start)
			return nil
		},
	}
	if j.snapSeq > 0 {
		old, err := readSnapshotBody(snapPath(j.dir, j.snapSeq))
		if err != nil {
			j.err = fmt.Errorf("wal: compact: %w", err)
			return j.err
		}
		if err := decodeRecords(old, appendHooks); err != nil {
			j.err = fmt.Errorf("wal: compact: %w", err)
			return j.err
		}
	}
	var scratch []byte
	for seq := j.snapSeq + 1; seq <= through; seq++ {
		res, sc, err := scanSegment(segPath(j.dir, seq), appendHooks, scratch)
		scratch = sc
		if err == nil && !res.clean {
			err = fmt.Errorf("wal: compact: segment %d has a torn tail", seq)
		}
		if err != nil {
			j.err = err
			return j.err
		}
	}
	newSnap := snapPath(j.dir, through)
	if err := writeSnapshot(newSnap, body); err != nil {
		j.err = fmt.Errorf("wal: compact: %w", err)
		return j.err
	}
	// The new snapshot is durable; covered files are now garbage.
	for seq := j.snapSeq + 1; seq <= through; seq++ {
		os.Remove(segPath(j.dir, seq))
	}
	if j.snapSeq > 0 {
		os.Remove(snapPath(j.dir, j.snapSeq))
	}
	_ = syncDir(j.dir)
	fi, err := os.Stat(newSnap)
	if err != nil {
		j.err = err
		return j.err
	}
	j.snapSeq = through
	j.snapBytes = fi.Size()
	j.sealedBytes = 0
	metricCompactions.Inc()
	metricCompactionSeconds.ObserveSince(start)
	return nil
}

// Checkpoint forces a durable point: the active segment is synced and, when
// enough sealed history has accumulated, folded into a snapshot. Shutdown
// paths call it so the next boot recovers from a compact prefix.
func (j *Journal) Checkpoint() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if j.sealedBytes > 0 && j.sealedBytes >= j.snapBytes {
		if err := j.compactLocked(); err != nil {
			return err
		}
	}
	return j.syncLocked()
}

// Close syncs and closes the journal. Further operations return ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err == ErrClosed {
		return nil
	}
	var err error
	if j.err != nil {
		err = j.err
	} else {
		err = j.syncLocked()
	}
	if cerr := j.f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	j.err = ErrClosed
	return err
}

// Dir returns the journal's directory (diagnostics and tests).
func (j *Journal) Dir() string { return j.dir }
