package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dqm/internal/estimator"
	"dqm/internal/votelog"
	"dqm/internal/votes"
	"dqm/internal/wal"
	"dqm/internal/window"
	"dqm/internal/xrand"
)

// ciSeed seeds every bootstrap confidence interval, so an interval is a
// function of the vote stream, the replicate count and the level alone.
const ciSeed = 0x5eed

// JournalError wraps a write-ahead journal failure. The mutation was NOT
// applied — write-ahead means the journal is consulted first — and the
// journal is left in a sticky error state, so subsequent durable mutations
// on the session keep failing. It marks an infrastructure fault (disk full,
// closed journal after eviction), not invalid input; API layers should map
// it to a 5xx, not a 4xx.
type JournalError struct {
	SessionID string
	Err       error
}

func (e *JournalError) Error() string {
	return fmt.Sprintf("engine: session %q journal: %v", e.SessionID, e.Err)
}

func (e *JournalError) Unwrap() error { return e.Err }

// journalErr reports a journal failure: a *JournalError, except for a batch
// the journal refused as too large for one frame, which is invalid input and
// leaves the journal healthy.
func (s *Session) journalErr(err error) error {
	if errors.Is(err, wal.ErrBatchTooLarge) {
		return fmt.Errorf("engine: session %q: %w", s.id, err)
	}
	return &JournalError{SessionID: s.id, Err: err}
}

// SessionConfig parameterizes one dataset session.
type SessionConfig struct {
	// Suite selects and parameterizes the estimators (see
	// estimator.SuiteConfig); the zero value is the paper-faithful default
	// set.
	Suite estimator.SuiteConfig
	// Window, when set, additionally runs the selected estimators over
	// tumbling/sliding task-count windows (see package window). Nil disables
	// windowed estimation. The config is persisted with the session, so a
	// recovered session rebuilds identical window state.
	Window *window.Config `json:",omitempty"`
}

// Session is one independent dataset being cleaned: a vote stream and the
// selected estimator suite over it. All methods are safe for concurrent use;
// a single mutex serializes mutations (votes within one session form one
// logical stream, so there is nothing to parallelize inside a session —
// concurrency comes from many sessions). Estimate READS are different: while
// a session is being read, every mutation publishes its estimates to a
// seqlock slot before it advances the version, and Estimates copies them out
// without touching the mutex, so heavy read traffic cannot stall ingest (and
// vice versa).
type Session struct {
	id      string
	created time.Time
	// items is the population size N, immutable for the session's lifetime —
	// read lock-free by Append's validation, so a rejected batch never
	// touches the session mutex.
	items int

	mu    sync.Mutex
	suite *estimator.Suite
	// ring is the windowed-estimation state (nil without a window config).
	ring  *window.Ring
	tasks int64
	// workers counts the distinct workers of the vote stream, once per
	// session rather than once per suite.
	workers votes.WorkerSet

	// journal is the write-ahead log of a durable session (nil otherwise).
	// Every mutation is journaled before it is applied, under mu, so journal
	// order equals apply order and recovery replays to bit-identical state.
	journal *wal.Journal

	// ciCache memoizes bootstrap confidence intervals by (kind, replicates,
	// level); entries are valid while their version still matches. Guarded by
	// mu. The bootstrap itself runs OFF the mutex: only the state capture and
	// the cache bookkeeping hold it.
	ciCache map[ciKey]ciEntry
	// ciFlights deduplicates concurrent identical CI requests: followers wait
	// on the leader's flight instead of recomputing. Keyed by (request shape,
	// version) so a follower never receives an interval for a different state
	// than it asked about. Guarded by mu.
	ciFlights map[ciFlightKey]*ciFlight

	lastUsed atomic.Int64 // unix nanos; read lock-free by the evictor

	// version counts applied mutations, Reset included; it is published
	// (atomically, after the state change, still under mu) so lock-free
	// readers can validate the slot and watchers can poll for changes
	// without contending with ingest. It never moves backwards or repeats
	// for distinct states.
	version atomic.Uint64
	// asked is the newest version a reader loaded (racing readers may lower
	// it); bump publishes while it is within publishWindow.
	asked atomic.Uint64
	slot  estimateSlot // the estimates of one version, written under mu

	// notifiers is the registered set of version-advance signal channels,
	// published copy-on-write so bump() reads it with one atomic load and no
	// lock. Registration (AddNotifier/RemoveNotifier) is serialized by
	// notifyMu; nil means nobody is watching, which is the common case and
	// costs ingest a single pointer load.
	notifiers atomic.Pointer[[]chan<- struct{}]
	notifyMu  sync.Mutex

	// policy is the session's attached quality-gate policy document, opaque
	// JSON owned by the API layer (package policy parses it; the engine only
	// persists it in session meta and hands it back). Atomic so readers on the
	// request path never take the session mutex; nil means none attached.
	policy atomic.Pointer[[]byte]
}

// ciKey identifies one bootstrap-CI request shape.
type ciKey struct {
	kind       byte // 's' = SWITCH, 'c' = Chao92
	replicates int
	level      float64
}

// ciEntry is one cached interval, valid while version matches the session.
type ciEntry struct {
	version uint64
	ci      estimator.CI
}

// ciFlightKey identifies one in-flight bootstrap: the request shape plus the
// session version its state was captured at.
type ciFlightKey struct {
	key     ciKey
	version uint64
}

// ciFlight is one in-flight off-mutex bootstrap. The leader closes done
// after storing ci/err; followers block on done and read the results.
type ciFlight struct {
	done chan struct{}
	ci   estimator.CI
	err  error
}

// NewSession creates a standalone session over a population of n items.
// Sessions managed by an Engine are created via Engine.Create instead. It
// panics on an invalid window config (API layers validate user input with
// window.Config.Validate, or create sessions through an Engine, which
// returns an error instead).
func NewSession(id string, n int, cfg SessionConfig) *Session {
	now := time.Now()
	s := &Session{
		id:      id,
		created: now,
		items:   n,
		suite:   estimator.NewSuite(n, cfg.Suite),
	}
	if cfg.Window != nil {
		s.ring = window.New(n, cfg.Suite, *cfg.Window)
	}
	e := s.suite.EstimateAll()
	s.slot.store(0, &e)
	s.lastUsed.Store(now.UnixNano())
	return s
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// CreatedAt returns the creation time.
func (s *Session) CreatedAt() time.Time { return s.created }

// LastUsed returns the time of the most recent operation.
func (s *Session) LastUsed() time.Time { return time.Unix(0, s.lastUsed.Load()) }

func (s *Session) touch() { s.lastUsed.Store(time.Now().UnixNano()) }

// PolicyJSON returns the session's attached quality-gate policy document, or
// nil when none is attached. The returned bytes are shared and must not be
// mutated.
func (s *Session) PolicyJSON() []byte {
	if p := s.policy.Load(); p != nil {
		return *p
	}
	return nil
}

// setPolicy publishes a policy document on the session (nil or empty clears).
// Durable persistence is the engine's job (SetPolicy); this only swaps the
// in-memory copy.
func (s *Session) setPolicy(raw []byte) {
	if len(raw) == 0 {
		s.policy.Store(nil)
		return
	}
	cp := make([]byte, len(raw))
	copy(cp, raw)
	s.policy.Store(&cp)
}

// bump publishes one applied mutation to lock-free readers. Call under mu,
// after the state change. While readers ask, the new version's estimates go
// to the slot before the version advances. Registered notifiers get a
// non-blocking signal: a full channel means the receiver already has a
// pending wakeup and will see this version when it drains, so the send is
// skipped — ingest never blocks or allocates on account of watchers.
func (s *Session) bump() {
	next := s.version.Load() + 1
	if next-s.asked.Load() <= publishWindow {
		e := s.suite.EstimateAll()
		s.slot.store(next, &e)
	}
	s.version.Store(next)
	if ns := s.notifiers.Load(); ns != nil {
		for _, ch := range *ns {
			select {
			case ch <- struct{}{}:
			default:
			}
		}
	}
}

// AddNotifier registers ch to receive a non-blocking signal whenever the
// session's version advances. ch should be buffered (capacity 1 suffices:
// the signal is a level, not a count — receivers re-read Version after each
// wakeup). Registering the same channel twice double-signals it.
func (s *Session) AddNotifier(ch chan<- struct{}) {
	s.notifyMu.Lock()
	defer s.notifyMu.Unlock()
	var cur []chan<- struct{}
	if p := s.notifiers.Load(); p != nil {
		cur = *p
	}
	next := make([]chan<- struct{}, len(cur), len(cur)+1)
	copy(next, cur)
	next = append(next, ch)
	s.notifiers.Store(&next)
}

// RemoveNotifier unregisters ch. A concurrent bump may still signal ch once
// after RemoveNotifier returns (it loads the notifier set before the swap);
// receivers must tolerate one stale wakeup.
func (s *Session) RemoveNotifier(ch chan<- struct{}) {
	s.notifyMu.Lock()
	defer s.notifyMu.Unlock()
	p := s.notifiers.Load()
	if p == nil {
		return
	}
	next := make([]chan<- struct{}, 0, len(*p))
	for _, c := range *p {
		if c != ch {
			next = append(next, c)
		}
	}
	if len(next) == 0 {
		s.notifiers.Store(nil)
		return
	}
	s.notifiers.Store(&next)
}

// applyVote feeds one vote to the all-time suite and the window ring. Every
// ingest path — live and recovery replay — funnels through here, so the two
// states cannot diverge.
func (s *Session) applyVote(v votes.Vote) {
	s.suite.Observe(v)
	s.workers.Add(v.Worker)
	if s.ring != nil {
		s.ring.Observe(v)
	}
}

// applyEndTask marks one task boundary everywhere, returning the window
// rotation it sealed (if any).
func (s *Session) applyEndTask() (window.Rotation, bool) {
	s.tasks++
	s.suite.EndTask()
	if s.ring == nil {
		return window.Rotation{}, false
	}
	return s.ring.EndTask()
}

// applyReset clears the vote stream and every estimator; Reset and recovery
// replay share it.
func (s *Session) applyReset() {
	s.suite.Reset()
	s.workers.Reset()
	if s.ring != nil {
		s.ring.Reset()
	}
	s.tasks = 0
}

// sealedWindow returns the start task of the window rotation sealed by the
// ahead-th task boundary from now (1 = the next), or -1 when it seals none.
// The journal records a rotation in its boundary's own frame, so recovery can
// never see the boundary without its rotation. Call under mu, before applying.
func (s *Session) sealedWindow(ahead int) int64 {
	if s.ring != nil {
		if rot, ok := s.ring.Config().RotationAt(s.ring.Tasks() + int64(ahead)); ok {
			return rot.Start
		}
	}
	return -1
}

// publish completes one journaled and applied batch of n votes: it marks the
// task boundary when endTask is set, publishes the new version to readers
// and watchers, and counts the batch. Call under mu.
func (s *Session) publish(n int, endTask bool) {
	if endTask {
		s.applyEndTask()
		metricTasks.Inc()
	}
	s.bump()
	s.touch()
	metricBatches.Inc()
	metricVotes.Add(uint64(n))
}

// Append ingests a batch of votes under one lock acquisition and, when
// endTask is set, marks a task boundary after the batch; Append(nil, true)
// marks a bare boundary, and Append(nil, false) does nothing. It validates
// item ranges up front — the whole batch
// is rejected before any vote is applied, so a bad request cannot leave a
// half-ingested task behind. On a durable session the batch is journaled
// (staged into the journal's open frame and committed) before it is applied;
// a journal error rejects the batch with in-memory state untouched and is
// returned as a *JournalError. A batch too large for one journal frame is
// refused the same way, but with an error wrapping wal.ErrBatchTooLarge: the
// journal stays healthy. Every vote mutation goes through here or AppendLog,
// and both through appendBlocks.
func (s *Session) Append(batch []votes.Vote, endTask bool) error {
	if err := s.checkItems(batch); err != nil {
		return err
	}
	if len(batch) == 0 && !endTask {
		return nil // no mutation: journaling nothing, it must not move the version
	}
	one := [1]block{{end: len(batch), endTask: endTask}}
	_, _, err := s.appendBlocks(batch, one[:])
	return err
}

// checkItems checks every item of batch against the population.
func (s *Session) checkItems(batch []votes.Vote) error {
	n := s.items
	for i, v := range batch {
		if v.Item < 0 || v.Item >= n {
			return fmt.Errorf("engine: vote %d: item %d outside population [0, %d)", i, v.Item, n)
		}
	}
	return nil
}

// AppendLog ingests a binary vote log split into task blocks (see
// votelog.SplitBinaryTasks). A task boundary follows each block whose
// successor carries a different task id, and the last block: the boundaries
// the Entry path produces for the same log. Each block is decoded once into
// a batch; the batch is journaled as one vote record, its boundary folded
// in and the window rotation that boundary seals behind it, and applied with
// one version bump.
//
// The whole log takes one hold of the session mutex and, on a durable
// session, one durability wait: every block is staged, the journal commits
// once, and only then is anything applied or published. It returns the votes
// and task boundaries applied. An invalid block (undecodable, an item
// outside the population, or too large for one journal frame) leaves every
// block before it applied and durable, applies nothing from it on, and
// returns the validation error. A journal error applies nothing in memory
// and returns (0, 0, *JournalError); blocks staged before the fault may
// already be on disk and come back when the session is reloaded (after a
// restart, or on revival after eviction), so compare Tasks after the reload
// before re-sending.
func (s *Session) AppendLog(blocks []votelog.TaskBlock) (votesIngested, tasksEnded int, err error) {
	return s.appendTaskBlocks(blocks, true)
}

// block is one task block of an appendBlocks call: its votes end at row end
// of the batch, and a task boundary follows them when endTask is set.
type block struct {
	end     int
	endTask bool
}

// staging is the scratch of one AppendLog call: the blocks decoded into one
// batch, and where each block ends.
type staging struct {
	batch  []votes.Vote
	blocks []block
}

// stagingPool lends every AppendLog call its scratch, so binary ingest does
// not allocate after warm-up and a session keeps no decode buffer.
var stagingPool = sync.Pool{New: func() any { return new(staging) }}

// appendTaskBlocks is AppendLog; endLast says whether the last block ends its
// task. It decodes and validates the blocks up to the first invalid one,
// outside the session mutex (the population never changes), and hands them
// to appendBlocks; the decode error, if any, is returned once the blocks
// before it are applied.
func (s *Session) appendTaskBlocks(blocks []votelog.TaskBlock, endLast bool) (votesIngested, tasksEnded int, err error) {
	st := stagingPool.Get().(*staging)
	defer stagingPool.Put(st)
	st.batch, st.blocks = st.batch[:0], st.blocks[:0]
	var invalid error
	for i, b := range blocks {
		from := len(st.batch)
		if st.batch, invalid = votelog.DecodeVotes(st.batch, b.Raw); invalid == nil {
			invalid = s.checkItems(st.batch[from:])
		}
		if invalid != nil {
			break
		}
		endTask := endLast
		if i+1 < len(blocks) {
			endTask = blocks[i+1].Task != b.Task
		}
		st.blocks = append(st.blocks, block{end: len(st.batch), endTask: endTask})
	}
	votesIngested, tasksEnded, err = s.appendBlocks(st.batch, st.blocks)
	if err == nil {
		err = invalid
	}
	return votesIngested, tasksEnded, err
}

// appendBlocks journals and applies batch as consecutive blocks: block i
// holds the votes from the previous block's end to its own. Under mu it
// stages blocks up to the first one the journal refuses as too large,
// commits once, then applies and publishes each staged block.
func (s *Session) appendBlocks(batch []votes.Vote, blocks []block) (votesIngested, tasksEnded int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal != nil {
		ahead, from := 0, 0 // task boundaries staged so far, first row of block i
		for i, b := range blocks {
			start := int64(-1)
			if b.endTask {
				ahead++
				start = s.sealedWindow(ahead)
			}
			if jerr := s.journal.Stage(batch[from:b.end], b.endTask, start); jerr != nil {
				if err = s.journalErr(jerr); !errors.Is(err, wal.ErrBatchTooLarge) {
					return 0, 0, err
				}
				blocks = blocks[:i]
				break
			}
			from = b.end
		}
		if len(blocks) > 0 {
			if jerr := s.journal.Commit(); jerr != nil {
				return 0, 0, &JournalError{SessionID: s.id, Err: jerr}
			}
		}
	}
	from := 0
	for _, b := range blocks {
		for _, v := range batch[from:b.end] {
			s.applyVote(v)
		}
		s.publish(b.end-from, b.endTask)
		votesIngested += b.end - from
		if b.endTask {
			tasksEnded++
		}
		from = b.end
	}
	return votesIngested, tasksEnded, err
}

// Record ingests one vote: Append of a one-vote batch without a task
// boundary. The batch lives on the stack, so an in-memory Record does not
// allocate.
func (s *Session) Record(item, worker int, dirty bool) error {
	label := votes.Clean
	if dirty {
		label = votes.Dirty
	}
	batch := [1]votes.Vote{{Item: item, Worker: worker, Label: label}}
	return s.Append(batch[:], false)
}

// EndTask marks a task boundary: Append(nil, true). The SWITCH trend
// detector operates on the per-task majority series.
func (s *Session) EndTask() error { return s.Append(nil, true) }

// Tasks returns the number of completed tasks.
func (s *Session) Tasks() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tasks
}

// Estimates returns every selected estimator's value at the current
// position. It copies them from the slot without taking the session mutex
// when the slot holds the version it loaded, or a newer one that has already
// been announced: while the session is being read, every mutation publishes
// there. A copy that races a store is retried. Otherwise it evaluates under
// the mutex and publishes.
func (s *Session) Estimates() estimator.Estimates {
	s.touch()
	v := s.version.Load()
	if s.asked.Load() < v {
		s.asked.Store(v)
	}
	var e estimator.Estimates
	for try := 0; try < slotReadTries; try++ {
		sv, ok := s.slot.load(&e)
		if ok && sv <= s.version.Load() {
			if sv >= v {
				metricEstimateHits.Inc()
				return e
			}
			break
		}
		// A store in flight: bump finishes it within nanoseconds, unless its
		// goroutine lost its processor, which yielding hands back.
		runtime.Gosched()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	metricEstimateMisses.Inc()
	e = s.suite.EstimateAll()
	s.slot.store(s.version.Load(), &e)
	return e
}

// Version returns the session's monotonic mutation counter. It advances on
// every applied mutation (votes, task boundaries, resets) and
// never repeats for distinct states, so clients — the SSE watch endpoint,
// dashboard pollers — can cheaply detect "has anything changed since
// version V" without reading estimates at all.
func (s *Session) Version() uint64 { return s.version.Load() }

// Windowed reports whether the session runs windowed estimation.
func (s *Session) Windowed() bool { return s.ring != nil }

// WindowConfig returns the session's (normalized) window configuration.
func (s *Session) WindowConfig() (window.Config, bool) {
	if s.ring == nil {
		return window.Config{}, false
	}
	return s.ring.Config(), true
}

// WindowEstimates evaluates the selected windowed view (see window.Kind). It
// fails on sessions without a window config and on views that are not
// available yet (no completed window). Windowed reads take the session
// mutex.
func (s *Session) WindowEstimates(kind window.Kind) (window.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ring == nil {
		return window.Result{}, fmt.Errorf("engine: session %q has no window configuration", s.id)
	}
	s.touch()
	return s.ring.Estimates(kind)
}

// EstimatorNames returns the session's selected estimators in evaluation
// order.
func (s *Session) EstimatorNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.suite.Names()
}

// NumItems returns the population size N (immutable, lock-free).
func (s *Session) NumItems() int { return s.items }

// NumWorkers returns the number of distinct workers seen.
func (s *Session) NumWorkers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.workers.Len()
}

// TotalVotes returns the number of votes ingested.
func (s *Session) TotalVotes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.suite.Matrix.TotalVotes()
}

// MajorityDirty reports the current majority consensus for an item.
func (s *Session) MajorityDirty(item int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.suite.Matrix.MajorityDirty(item)
}

// Reset clears the vote stream and every estimator, keeping the session
// registered. On a durable session the reset is journaled first, with the
// version it publishes — the next compaction discards all pre-reset history,
// and recovery counts the version on from there — and a journal error leaves
// the session untouched and is returned as a *JournalError.
func (s *Session) Reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal != nil {
		if err := s.journal.Reset(s.version.Load() + 1); err != nil {
			return &JournalError{SessionID: s.id, Err: err}
		}
	}
	s.applyReset()
	s.bump()
	s.touch()
	metricResets.Inc()
	return nil
}

// checkpointJournal forces a durable point (fsync + compaction when due).
// An already-closed journal (evicted session, repeated engine Close) is a
// no-op, not an error.
func (s *Session) checkpointJournal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	if err := s.journal.Checkpoint(); err != nil && !errors.Is(err, wal.ErrClosed) {
		return err
	}
	return nil
}

// closeJournal flushes and closes the journal (eviction and engine close).
func (s *Session) closeJournal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	return s.journal.Close()
}

// maxCICacheEntries bounds the per-session CI memo; beyond it the whole map
// is dropped (distinct request shapes per session are few in practice).
const maxCICacheEntries = 32

// ciComputeHook, when non-nil, runs at the start of every off-mutex
// bootstrap compute. Test instrumentation only: tests stall it to hold a CI
// in flight while proving ingest and estimate reads proceed without it.
var ciComputeHook func()

// runCI serves one bootstrap-CI request: memoized by (request shape) per
// version, deduplicated across concurrent identical requests, and computed
// OFF the session mutex. capture runs under mu and snapshots the minimal
// bootstrap state (per-item counts or flattened switch ledgers), returning
// the compute closure; the replicate loop then runs with the mutex released,
// so ingest proceeds concurrently. The bootstrap is deterministic given the
// seed and the vote stream, so an unchanged session always reproduces the
// same interval — the cache just skips the recompute on every poll.
func (s *Session) runCI(key ciKey, capture func() (func() (estimator.CI, error), error)) (estimator.CI, error) {
	if err := estimator.ValidateBootstrapArgs(key.replicates, key.level); err != nil {
		return estimator.CI{}, err
	}
	s.mu.Lock()
	s.touch()
	v := s.version.Load()
	if e, ok := s.ciCache[key]; ok && e.version == v {
		s.mu.Unlock()
		return e.ci, nil
	}
	fk := ciFlightKey{key: key, version: v}
	if f, ok := s.ciFlights[fk]; ok {
		// Follower: an identical request over identical state is already in
		// flight; wait for its result instead of recomputing.
		s.mu.Unlock()
		<-f.done
		return f.ci, f.err
	}
	compute, err := capture()
	if err != nil {
		s.mu.Unlock()
		return estimator.CI{}, err
	}
	f := &ciFlight{done: make(chan struct{})}
	if s.ciFlights == nil {
		s.ciFlights = make(map[ciFlightKey]*ciFlight, 2)
	}
	s.ciFlights[fk] = f
	s.mu.Unlock()

	if ciComputeHook != nil {
		ciComputeHook()
	}
	start := time.Now()
	f.ci, f.err = compute()
	metricBootstrapSeconds.ObserveSince(start)

	s.mu.Lock()
	delete(s.ciFlights, fk)
	if f.err == nil && s.version.Load() == v {
		// Only cache when the session has not moved on: a newer state must
		// never be answered with an interval captured before it.
		if s.ciCache == nil || len(s.ciCache) >= maxCICacheEntries {
			s.ciCache = make(map[ciKey]ciEntry, 4)
		}
		s.ciCache[key] = ciEntry{version: v, ci: f.ci}
	}
	s.mu.Unlock()
	close(f.done)
	return f.ci, f.err
}

// SwitchCI computes a bootstrap confidence interval for the SWITCH total
// estimate, cached by (replicates, level) until the session mutates. The
// session must have been configured with SwitchConfig.RetainLedgers. The
// replicate loop runs off the session mutex, fanned over the session's
// bootstrap worker pool; ingest is blocked only for the O(switches) ledger
// capture.
func (s *Session) SwitchCI(replicates int, level float64) (estimator.CI, error) {
	return s.runCI(ciKey{'s', replicates, level}, func() (func() (estimator.CI, error), error) {
		if s.suite.Switch == nil {
			return nil, fmt.Errorf("engine: session %q has no SWITCH estimator", s.id)
		}
		st, err := s.suite.Switch.CaptureBootstrap()
		if err != nil {
			return nil, err
		}
		return func() (estimator.CI, error) {
			defer st.Release()
			return st.Bootstrap(replicates, level, xrand.New(ciSeed), estimator.DefaultBootstrapWorkers())
		}, nil
	})
}

// Chao92CI computes a bootstrap confidence interval for the Chao92 total
// estimate, cached by (replicates, level) until the session mutates. Like
// SwitchCI, only the O(N) count capture holds the session mutex.
func (s *Session) Chao92CI(replicates int, level float64) (estimator.CI, error) {
	return s.runCI(ciKey{'c', replicates, level}, func() (func() (estimator.CI, error), error) {
		st := estimator.CaptureChao92(s.suite.Matrix)
		return func() (estimator.CI, error) {
			defer st.Release()
			return st.Bootstrap(replicates, level, xrand.New(ciSeed), estimator.DefaultBootstrapWorkers())
		}, nil
	})
}
