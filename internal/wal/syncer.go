package wal

import (
	"errors"
	"sync"
	"time"
)

// Syncer is the store-wide group-commit plane: one goroutine that drains and
// fsyncs every dirty journal in the store, so N sessions committing
// concurrently share flush passes instead of each paying its own fsync
// cadence. It replaces the per-journal FsyncBatch timing and the engine's old
// background flusher, and under FsyncAlways it turns per-append fsyncs into
// cross-session group commit: appenders park until a pass covers their
// journal, and one pass syncs every journal that went dirty since the last —
// the classic group-commit ring, keyed by journal instead of transaction.
//
// Durability semantics per policy are unchanged:
//
//   - FsyncAlways: Commit does not return before the batches it covers are
//     sealed into frames and fsynced (the fsync just batches with every
//     other session's).
//   - FsyncBatch: a pass runs at least every BatchInterval and fsyncs all
//     dirty journals; a crash loses at most roughly one interval.
//   - FsyncNever: passes only drain user-space buffers to the OS.
//
// Errors stay per-journal and sticky: a failed flush/fsync during a pass
// lands in that journal's sticky error state, parked committers on it observe
// the error when their pass completes, and other journals are unaffected.
type Syncer struct {
	interval time.Duration
	fsync    bool // passes fsync (FsyncAlways/FsyncBatch) or only flush (FsyncNever)

	mu    sync.Mutex
	cond  *sync.Cond // broadcast at the end of every pass and on Close
	queue []*Journal // journals gone dirty since the last pass snapshot
	spare []*Journal // recycled backing array for queue
	begun uint64     // passes started (snapshot taken)
	done  uint64     // passes finished (every snapshotted journal synced)
	// closed marks the syncer stopped: no further passes will run and parked
	// committers must fall back to syncing their own journal.
	closed bool

	wake    chan struct{} // capacity 1: at most one pending demand-pass token
	stop    chan struct{}
	stopped chan struct{}
}

// newSyncer builds and starts a syncer for a store with the given options.
func newSyncer(opts Options) *Syncer {
	sy := &Syncer{
		interval: opts.BatchInterval,
		fsync:    opts.Fsync != FsyncNever,
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		stopped:  make(chan struct{}),
	}
	sy.cond = sync.NewCond(&sy.mu)
	go sy.run()
	return sy
}

// run is the syncer loop: a pass per wake token (parked committers demanding
// durability now) and a pass per tick (the FsyncBatch staleness bound and the
// FsyncNever idle drain).
func (sy *Syncer) run() {
	defer close(sy.stopped)
	t := time.NewTicker(sy.interval)
	defer t.Stop()
	for {
		select {
		case <-sy.stop:
			// One final pass so nothing enqueued before Close is stranded.
			sy.pass()
			return
		case <-sy.wake:
			sy.pass()
		case <-t.C:
			sy.pass()
		}
	}
}

// pass snapshots the dirty-journal queue and syncs each journal in it. The
// queued flag is cleared before the journal is synced, so a batch committed
// while the pass is in flight re-enqueues its journal for the next pass
// rather than being silently considered covered.
func (sy *Syncer) pass() {
	sy.mu.Lock()
	batch := sy.queue
	sy.queue = sy.spare[:0]
	sy.spare = nil
	sy.begun++
	sy.mu.Unlock()

	for _, j := range batch {
		j.queued.Store(false)
		j.passSync(sy.fsync)
	}
	if len(batch) > 0 && sy.fsync {
		metricGroupCommitSessions.Observe(float64(len(batch)))
	}

	sy.mu.Lock()
	sy.spare = batch[:0]
	sy.done++
	sy.cond.Broadcast()
	sy.mu.Unlock()
}

// MarkDirty enqueues a journal for the next pass (FsyncBatch/FsyncNever
// commits). The fast path — journal already queued — is one atomic load and
// touches no lock, so concurrent sessions hammering commits do not contend
// here.
func (sy *Syncer) MarkDirty(j *Journal) {
	if j.queued.Load() || !j.queued.CompareAndSwap(false, true) {
		return
	}
	sy.mu.Lock()
	if sy.closed {
		sy.mu.Unlock()
		// No pass will run; leave the flag set (harmless) — the journal's own
		// Sync/Close paths still bound buffered data.
		return
	}
	sy.queue = append(sy.queue, j)
	sy.mu.Unlock()
}

// Commit enqueues a journal and parks until a pass that began after the
// enqueue has completed — at which point the journal's batches (including the
// caller's) are flushed and fsynced, or its sticky error says why not. This
// is the FsyncAlways path: every concurrent committer in the store shares the
// pass's fsyncs.
func (sy *Syncer) Commit(j *Journal) error {
	sy.mu.Lock()
	if sy.closed {
		sy.mu.Unlock()
		return j.fallbackSync()
	}
	if !j.queued.Load() && j.queued.CompareAndSwap(false, true) {
		sy.queue = append(sy.queue, j)
	}
	// The first pass to snapshot the queue after this point has index
	// begun+1; a pass already in flight took its snapshot before the enqueue
	// above and cannot be trusted to cover it.
	target := sy.begun + 1
	select {
	case sy.wake <- struct{}{}:
	default:
	}
	metricSyncWaiters.Inc()
	for sy.done < target && !sy.closed {
		sy.cond.Wait()
	}
	covered := sy.done >= target
	sy.mu.Unlock()
	metricSyncWaiters.Dec()
	if !covered {
		// Closed before our pass ran: sync directly rather than return
		// un-durable.
		return j.fallbackSync()
	}
	return j.commitErr()
}

// Close stops the syncer: the loop drains one final pass, then parked
// committers are released (falling back to direct syncs for anything the
// final pass missed). Idempotent via Store.Close's once-guard; Close itself
// must only be called once.
func (sy *Syncer) Close() {
	close(sy.stop)
	<-sy.stopped
	sy.mu.Lock()
	sy.closed = true
	sy.cond.Broadcast()
	sy.mu.Unlock()
}

// fallbackSync syncs the journal directly when the syncer cannot cover it
// (shutdown). A journal closed in the same shutdown already synced in Close,
// so ErrClosed here does not mean data loss.
func (j *Journal) fallbackSync() error {
	if err := j.Sync(); err != nil && !errors.Is(err, ErrClosed) {
		return err
	}
	return nil
}

// passSync flushes (and, with fsync set, syncs) the journal for a syncer
// pass. Errors land in the journal's sticky state for committers and the
// next mutation to observe; a journal already erred or closed is skipped.
func (j *Journal) passSync(fsync bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	if fsync {
		_ = j.syncLocked()
	} else {
		_ = j.flushLocked()
	}
}

// commitErr reports the journal's sticky error to a parked committer after
// its pass completed. ErrClosed maps to nil: Close syncs before closing, so
// the committed batch is durable.
func (j *Journal) commitErr() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil && !errors.Is(j.err, ErrClosed) {
		return j.err
	}
	return nil
}
