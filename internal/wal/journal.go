package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dqm/internal/votelog"
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
	// to committed batches.
	sy *Syncer
	// metaMu is the store's lock on meta.json rewrites (see Store.metaMu).
	metaMu *sync.Mutex
	// queued marks the journal as enqueued for the syncer's next pass; the
	// syncer clears it when it snapshots the queue. Lock-free so MarkDirty
	// stays off the syncer lock on the already-queued fast path.
	queued atomic.Bool

	// mu guards all file and buffer state below. Appends hold it only for
	// the in-memory work (record encode, buffer drain, rotation); FsyncAlways
	// appends park on the syncer after releasing it, so a parked committer
	// never blocks the pass that will cover it.
	mu sync.Mutex

	f    *os.File // active segment
	seq  uint64   // active segment sequence number
	size int64    // bytes written (flushed) to the active segment

	// wbuf is the open frame, the user-space half of group commit: empty, or
	// a reserved head of frameHead bytes followed by the records of every
	// batch staged since the last flush. Appends encode straight into it.
	// It is sealed into one frame and handed to the OS on flushChunk
	// overflow, Sync, rotation, Checkpoint, Close, and every syncer pass that
	// covers this journal. Under FsyncAlways a commit does not return before
	// a pass sealed, wrote and fsynced it, so nothing acknowledged ever sits
	// here; under FsyncBatch/FsyncNever a crash can lose it, which those
	// policies permit by contract.
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
}

func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d.seg", seq))
}

func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016d.bin", seq))
}

// createSegment opens a fresh segment file, writes its header and fsyncs
// dir: POSIX makes a new file's name durable only once its directory is
// synced, so without it a crash could take the segment, and every batch
// acknowledged in it, away whole.
func createSegment(dir string, seq uint64) (*os.File, int64, error) {
	f, err := os.OpenFile(segPath(dir, seq), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, 0, err
	}
	if _, err := f.Write(segMagic); err != nil {
		f.Close()
		return nil, 0, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, int64(len(segMagic)), nil
}

// ErrBatchTooLarge refuses a batch whose records cannot fit in one frame
// (maxFramePayload, 64 MiB). A vote takes 1 to 20 bytes, so any batch of up
// to three million votes fits. The refusal stages nothing and leaves the
// journal healthy: later appends proceed as if the batch had never come.
var ErrBatchTooLarge = errors.New("wal: batch does not fit in one journal frame (64 MiB)")

// Append write-ahead-logs one engine batch and commits it: it stages the
// votes as one block record into the open frame, then a task boundary when
// endTask is set and, when windowStart >= 0, the window rotation that
// boundary seals. Frames are sealed only between batches, so a boundary and
// its rotation always share a frame and a torn tail can never separate them:
// recovery sees both or neither, and replayed window boundaries always match
// an uninterrupted run. windowStart is the first completed-task index of the
// sealed window; pass -1 for none. Append must be called before the batch is
// applied to in-memory state.
func (j *Journal) Append(batch []votes.Vote, endTask bool, windowStart int64) error {
	if len(batch) == 0 && !endTask {
		return nil
	}
	if err := j.lock(); err != nil {
		return err
	}
	start := time.Now()
	buf := j.openFrame()
	from := len(buf)
	if len(batch) > 0 {
		buf = appendBlock(buf, batch)
	}
	j.wbuf = appendBoundary(buf, endTask, windowStart)
	if err := j.staged(start, from); err != nil {
		return err
	}
	return j.Commit()
}

// StageColumns stages rows [from, to) of decoded vote columns into the open
// frame without applying the fsync policy: the votes as one block record,
// then the boundary and rotation as in Append. The caller must have
// validated the rows (item bounds) first: the journal must never hold a
// record replay would reject. A staged batch is durable only after the next
// Commit returns, so a multi-task write stages every task and commits once
// before applying any of them.
func (j *Journal) StageColumns(cols *votelog.VoteColumns, from, to int, endTask bool, windowStart int64) error {
	if from == to && !endTask {
		return nil
	}
	if err := j.lock(); err != nil {
		return err
	}
	start := time.Now()
	buf := j.openFrame()
	at := len(buf)
	if from < to {
		buf = appendColumnsBlock(buf, cols, from, to)
	}
	j.wbuf = appendBoundary(buf, endTask, windowStart)
	return j.staged(start, at)
}

// Reset logs a session reset. The next compaction discards everything before
// it, so first the session version the reset publishes is stored in
// meta.json as ResetVersion: recovery counts the version on from there, not
// from a replay that compaction shortened. When that write fails, nothing is
// journaled and the journal stays usable.
func (j *Journal) Reset(version uint64) error {
	if err := j.lock(); err != nil {
		return err
	}
	if err := rewriteMeta(j.metaMu, j.dir, func(m *Meta) { m.ResetVersion = version }); err != nil {
		j.mu.Unlock()
		return err
	}
	start := time.Now()
	buf := j.openFrame()
	from := len(buf)
	j.wbuf = append(buf, opReset)
	if err := j.staged(start, from); err != nil {
		return err
	}
	return j.Commit()
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

// flushChunk seals the open frame and hands it to the OS once the buffer
// exceeds this size, bounding both memory and write-syscall frequency.
const flushChunk = 64 << 10

// openFrame returns wbuf, first reserving the head of a new frame when none
// is open. Call with j.mu held.
func (j *Journal) openFrame() []byte {
	if len(j.wbuf) == 0 {
		j.wbuf = append(j.wbuf, make([]byte, frameHead)...)
	}
	return j.wbuf
}

// staged completes one batch that an append encoded into the open frame from
// offset from: it keeps the frame within maxFramePayload, then commits the
// batch to the buffer. Called with j.mu held; unlocks it.
func (j *Journal) staged(start time.Time, from int) error {
	err := j.fitLocked(from)
	if err == nil {
		err = j.commitLocked()
		metricFrames.Inc()
	}
	j.mu.Unlock()
	metricAppendSeconds.ObserveSince(start)
	return err
}

// fitLocked keeps the open frame's payload within maxFramePayload after a
// batch was encoded into it from offset from. When the batch fits a frame of
// its own, what was staged before it is sealed first and the batch opens the
// next frame; when it cannot fit even alone, it is dropped and
// ErrBatchTooLarge returned. Call with j.mu held.
func (j *Journal) fitLocked(from int) error {
	if len(j.wbuf)-frameHead <= maxFramePayload {
		return nil
	}
	if len(j.wbuf)-from > maxFramePayload {
		// Copy what stays staged, so the buffer that held the batch is freed.
		j.wbuf = append([]byte(nil), j.wbuf[:from]...)
		return ErrBatchTooLarge
	}
	return j.sealLocked(from)
}

// Commit applies the fsync policy to every batch staged since the last
// Commit. Under FsyncAlways it parks until a syncer pass has sealed, flushed
// and fsynced them — one wait however many batches were staged, shared with
// every other journal committing in the same pass — and returns the
// journal's sticky error if that failed. Under FsyncBatch and FsyncNever it
// enqueues the journal for the syncer's next pass and returns at once.
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

// commitLocked accounts for a batch staged into the open frame: it seals the
// frame once the buffer passes flushChunk, and rotates and compacts when
// thresholds are crossed. Call with j.mu held.
func (j *Journal) commitLocked() error {
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

// flushLocked seals the open frame, if it holds anything, and hands it to the
// OS without fsyncing. Every frame boundary is a flush: buffer overflow, a
// syncer pass, Sync, rotation, Checkpoint and Close. Syncer passes call it
// under FsyncNever so acknowledged batches cannot sit in process memory
// indefinitely. Call with j.mu held.
func (j *Journal) flushLocked() error {
	if len(j.wbuf) <= frameHead {
		return nil
	}
	return j.sealLocked(len(j.wbuf))
}

// sealLocked seals the payload staged in wbuf[frameHead:end] as one frame and
// writes it in one call; records staged after end move behind a fresh head,
// as the next open frame. Call with j.mu held.
func (j *Journal) sealLocked(end int) error {
	frame := sealFrame(j.wbuf[:end])
	n, err := j.f.Write(frame)
	if err != nil {
		j.err = fmt.Errorf("wal: append: %w", err)
		metricWriteErrors.Inc()
		return j.err
	}
	j.size += int64(n)
	metricFlushedBytes.Add(uint64(n))
	rest := copy(j.wbuf[frameHead:], j.wbuf[end:])
	j.wbuf = j.wbuf[:frameHead+rest]
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
// snapshot is the full record stream, which replays through the same ingest
// path as live votes and is therefore bit-identical by construction. Votes
// are read back through the batched replay path and rewritten as one block
// record per batch, so history from any earlier record encoding comes out in
// the current one. Call with j.mu held.
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
		Votes: func(cols *votelog.VoteColumns) error {
			body = appendColumnsBlock(body, cols, 0, cols.Len())
			return nil
		},
		Cols: &votelog.VoteColumns{},
		// A vote outside the columnar int32 domain arrives alone, in order.
		Vote: func(item, worker int, dirty bool) error {
			label := votes.Clean
			if dirty {
				label = votes.Dirty
			}
			one := [1]votes.Vote{{Item: item, Worker: worker, Label: label}}
			body = appendBlock(body, one[:])
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
