// Package engine implements the concurrent multi-session estimation engine
// behind the public dqm API and cmd/dqm-serve: many independent dataset
// sessions, each wrapping one estimator suite, behind a mutex-sharded
// session table. The DQM estimate is consulted continuously while cleaning
// is in flight, so the engine is built for a long-lived service shape —
// streaming vote ingest and LRU eviction to bound memory under millions of
// short-lived datasets. A rollback is Reset and a replay of the trusted
// prefix: the estimators are deterministic functions of the vote stream, so
// the replay reproduces the estimates at the end of that prefix exactly.
//
// Concurrency model: session lookup shards an FNV hash of the session id
// over 32 independently locked maps, so create/get/delete traffic from many
// goroutines rarely meets on one lock; each session serializes its own vote
// stream with a private mutex (votes within a session form one logical
// stream — cross-session ingest is what runs in parallel).
//
// Durability: in an engine built by Open over a data directory, every session
// owns a write-ahead journal (package wal). Mutations are journaled before
// they are applied, under the same session mutex, so the journal order is the
// apply order; recovery replays the journal through the ordinary ingest path
// and therefore reproduces estimator state bit-identically. LRU eviction
// closes a durable session's journal but keeps its files — Load (or GetOrLoad)
// revives it on demand — while Delete removes the files too.
package engine

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dqm/internal/estimator"
	"dqm/internal/votes"
	"dqm/internal/wal"
	"dqm/internal/window"
)

// Config parameterizes an Engine.
type Config struct {
	// MaxSessions bounds the number of live sessions; creating one more
	// evicts the least-recently-used session. 0 means unlimited. On a durable
	// engine eviction only releases memory: the evicted session's journal is
	// closed and its files are kept for a later Load.
	MaxSessions int
	// OnEvict, when set, is called with the id of every session removed by
	// the MaxSessions policy (not by explicit Delete), after removal and
	// after every engine lock (including the durable engine's load lock) has
	// been released — so the callback may re-enter the engine. Layers holding
	// per-session state (e.g. a watch hub entry) use it to release theirs.
	OnEvict func(id string)
	// WAL tunes the journals of an engine built by Open.
	WAL wal.Options
}

// numShards is the number of independently locked session-table shards, a
// power of two so that shard selection is a mask.
const numShards = 32

// Engine manages many concurrent estimation sessions.
type Engine struct {
	shards  [numShards]shard
	max     int
	onEvict func(id string)
	count   atomic.Int64
	// evictions counts sessions dropped by the MaxSessions policy.
	evictions atomic.Int64

	// store is the durability layer; nil for in-memory engines.
	store *wal.Store
	// bootSessions/bootNanos record what Open's boot recovery did, for the
	// serving layer's startup log and healthz.
	bootSessions int
	bootNanos    int64

	// idMu guards inflight: one short-lived lock per session id, replacing
	// the old engine-global loadMu. Every operation that transitions a
	// session between disk and memory — Load, durable Create, durable
	// Delete, eviction of a victim — holds that id's lock for the duration,
	// so a Load can never recover a session's files while a concurrent
	// Create/evict/Delete still holds an open journal on them (two write fds
	// interleaving frames into one segment). Distinct ids proceed fully
	// concurrently, and duplicate concurrent Loads of one id coalesce: the
	// second acquires the lock after the first finished and finds the live
	// session. Deadlock-free: an operation acquires at most its own id's
	// lock plus one eviction victim's at a time, and victims are always live
	// sessions while an operation's own id is never live before its insert —
	// so no cycle can close.
	idMu     sync.Mutex
	inflight map[string]*idLock
}

// idLock is one session id's disk<->memory transition lock, reference-counted
// so the inflight map stays bounded by the number of in-flight operations.
type idLock struct {
	mu   sync.Mutex
	refs int
}

type shard struct {
	mu       sync.RWMutex
	sessions map[string]*Session
}

// New creates an in-memory engine. Open builds a durable one.
func New(cfg Config) *Engine {
	e := &Engine{
		max:      cfg.MaxSessions,
		onEvict:  cfg.OnEvict,
		inflight: make(map[string]*idLock),
	}
	for i := range e.shards {
		e.shards[i].sessions = make(map[string]*Session)
	}
	return e
}

// lockID acquires the per-id transition lock for id, creating it on first
// use. Pair with unlockID.
func (e *Engine) lockID(id string) *idLock {
	e.idMu.Lock()
	l := e.inflight[id]
	if l == nil {
		l = &idLock{}
		e.inflight[id] = l
	}
	l.refs++
	e.idMu.Unlock()
	l.mu.Lock()
	return l
}

// unlockID releases a per-id transition lock, dropping it from the map when
// no other operation holds or awaits it.
func (e *Engine) unlockID(id string, l *idLock) {
	l.mu.Unlock()
	e.idMu.Lock()
	l.refs--
	if l.refs == 0 {
		delete(e.inflight, id)
	}
	e.idMu.Unlock()
}

// Open creates a durable engine over the data directory dir: each session
// journals to a directory under it, and every journaled session found there
// is recovered into memory (estimator state bit-identical to the moment of
// the last durable frame) before Open returns. Recovery replays sessions on
// GOMAXPROCS workers.
func Open(dir string, cfg Config) (*Engine, error) {
	return open(dir, cfg, runtime.GOMAXPROCS(0))
}

// open is Open with boot recovery on the given number of workers. Sessions
// are independent journals, so the recovered state is bit-identical at any
// worker count; only the boot's wall-clock time changes.
func open(dir string, cfg Config, workers int) (*Engine, error) {
	e := New(cfg)
	store, err := wal.OpenStore(dir, cfg.WAL)
	if err != nil {
		return nil, err
	}
	e.store = store
	ids, err := store.IDs()
	if err != nil {
		return nil, err
	}
	// Recover at most MaxSessions eagerly; the rest stay on disk and revive
	// lazily through Load/GetOrLoad — replaying a session only to evict it
	// straight back out would make boot O(total journal bytes) instead of
	// O(cap). The budget goes to the most recently modified journals (the
	// sessions that were hot when the previous process stopped), so a warm
	// boot approximates the LRU-warm working set instead of whatever prefix
	// the sorted listing happens to start with.
	if e.max > 0 && len(ids) > e.max {
		recent, err := store.IDsByMTime()
		if err != nil {
			return nil, err
		}
		ids = recent[:e.max]
	}
	start := time.Now()
	if err := e.recoverAll(ids, workers); err != nil {
		// Nothing was inserted into the shard table on error; close the
		// journals the successful workers opened, then the store.
		store.Close()
		return nil, err
	}
	e.bootSessions = len(ids)
	e.bootNanos = int64(time.Since(start))
	// No background flusher here: the store's group-commit Syncer (one
	// goroutine per store, inside package wal) bounds how long acknowledged
	// frames sit in any journal's user-space buffer.
	return e, nil
}

// recoverAll replays ids across a pool of workers and inserts the
// recovered sessions into the shard table, all or nothing. Workers claim ids
// in slice order off an atomic cursor; each session replays independently
// with a per-worker scratch, so results are bit-identical at any worker
// count. Error semantics are deterministic too: the error of the
// lowest-index failing id is returned — the same one serial recovery would
// hit — regardless of which worker stumbled first. (Claims are monotone, so
// once any id fails, every unclaimed id has a higher index than every failing
// claimed one; skipping the remainder can never hide an earlier error.)
func (e *Engine) recoverAll(ids []string, workers int) error {
	if len(ids) == 0 {
		return nil
	}
	if workers > len(ids) {
		workers = len(ids)
	}
	type outcome struct {
		s   *Session
		err error
	}
	results := make([]outcome, len(ids))
	var (
		cursor atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc replayScratch // reused across this worker's sessions
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(ids) || failed.Load() {
					return
				}
				s, err := e.recoverSession(ids[i], &sc)
				results[i] = outcome{s: s, err: err}
				if err != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, r := range results {
		if r.err == nil {
			continue
		}
		// Unwind: every journal a worker opened must be closed, or the files
		// would stay locked into a dead engine.
		for _, done := range results {
			if done.s != nil {
				done.s.closeJournal()
			}
		}
		return r.err
	}
	for i, id := range ids {
		sh := e.shardFor(id)
		sh.mu.Lock()
		sh.sessions[id] = results[i].s
		sh.mu.Unlock()
		e.count.Add(1)
	}
	return nil
}

// BootRecovery reports what Open's boot recovery did: how many sessions were
// replayed eagerly and how long the (possibly parallel) replay took. Zero
// values on in-memory engines and empty stores.
func (e *Engine) BootRecovery() (sessions int, elapsed time.Duration) {
	return e.bootSessions, time.Duration(e.bootNanos)
}

// Durable reports whether the engine persists sessions to disk.
func (e *Engine) Durable() bool { return e.store != nil }

// testRecoverStall, when set (tests only), runs at the top of every journal
// replay with the session id — the hook tests use to hold one recovery open
// while asserting that loads of other sessions proceed, and to count how many
// replays a burst of duplicate loads actually performed.
var testRecoverStall func(id string)

// replayScratch is the memory a journal replay reuses: the vote batch
// scratch and the segment read buffer. Each boot worker keeps one across the
// sessions it recovers; cold loads borrow one from replayScratchPool.
type replayScratch struct {
	batch []votes.Vote
	buf   []byte
}

var replayScratchPool = sync.Pool{New: func() any { return new(replayScratch) }}

// recoverSession rebuilds one session from its journal: latest snapshot plus
// journal tail. Replay is batched — vote records are decoded into sc's batch
// (sc is reused across sessions) and applied in task-sized batches, so
// recovery looks like live ingest rather than a stream of single-vote
// appends: one bounds-check pass and one rotation cross-check per batch
// instead of per vote, no per-vote hook indirection, and no estimate
// publication or per-vote metric traffic until the session goes live (the
// version is published once, at the end).
//
// The version counts the replayed votes, task boundaries and resets, from
// the version the last reset published when meta.json records it, since
// compaction drops everything before that reset.
func (e *Engine) recoverSession(id string, sc *replayScratch) (*Session, error) {
	start := time.Now()
	defer metricRecoverySeconds.ObserveSince(start)
	if testRecoverStall != nil {
		testRecoverStall(id)
	}
	meta, err := e.store.ReadMeta(id)
	if err != nil {
		return nil, err
	}
	var cfg SessionConfig
	if len(meta.Config) > 0 {
		if err := json.Unmarshal(meta.Config, &cfg); err != nil {
			return nil, fmt.Errorf("engine: session %q: bad stored config: %w", id, err)
		}
	}
	if err := estimator.ValidateNames(cfg.Suite.Estimators); err != nil {
		return nil, fmt.Errorf("engine: session %q: %w", id, err)
	}
	if cfg.Window != nil {
		if err := cfg.Window.Validate(); err != nil {
			return nil, fmt.Errorf("engine: session %q: bad stored config: %w", id, err)
		}
	}
	s := NewSession(id, meta.Items, cfg)
	if !meta.CreatedAt.IsZero() {
		s.created = meta.CreatedAt
	}
	s.setPolicy(meta.Policy)
	n := meta.Items
	// Window rotations replay deterministically from the task stream; the
	// journaled opWindow records are the cross-check. The start of every
	// window the replayed ring seals is stashed here (-1 when none is
	// pending) and must be consumed by the rotation record that follows its
	// task boundary — a mismatch means the journal and the window state
	// machine disagree, which recovery must refuse rather than serve silently
	// wrong windows.
	pending := int64(-1)
	var replayErr error
	checkNoPending := func() error {
		if pending >= 0 {
			return fmt.Errorf("engine: session %q: window rotation at task %d has no journal record", id, pending)
		}
		return nil
	}
	j, err := e.store.Recover(id, wal.Hooks{
		Votes: func(batch []votes.Vote) error {
			if err := checkNoPending(); err != nil {
				return err
			}
			for _, v := range batch {
				if v.Item < 0 || v.Item >= n {
					return fmt.Errorf("engine: journaled item %d outside population [0, %d)", v.Item, n)
				}
			}
			for _, v := range batch {
				s.applyVote(v)
			}
			return nil
		},
		Batch: &sc.batch,
		Buf:   &sc.buf,
		EndTask: func() {
			// The hook cannot return an error; stash the violation and fail
			// after Recover returns (the session is discarded on error anyway).
			if err := checkNoPending(); err != nil && replayErr == nil {
				replayErr = err
			}
			if rot, ok := s.applyEndTask(); ok {
				pending = rot.Start
			}
		},
		Reset: func() {
			if meta.ResetVersion == 0 {
				// No floor: count the reset and what it clears.
				s.version.Add(uint64(s.suite.Matrix.TotalVotes()+s.tasks) + 1)
			}
			s.applyReset()
			pending = -1
		},
		Window: func(start int64) error {
			if pending < 0 {
				return fmt.Errorf("engine: session %q: journaled window rotation at task %d, but replay sealed none", id, start)
			}
			if pending != start {
				return fmt.Errorf("engine: session %q: journaled window rotation at task %d, replay sealed task %d", id, start, pending)
			}
			pending = -1
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	if replayErr == nil {
		replayErr = checkNoPending()
	}
	if replayErr != nil {
		j.Close()
		return nil, replayErr
	}
	// Publish the replayed position to lock-free readers (the session is not
	// shared yet, but keep the invariant: version reflects applied state).
	s.version.Add(meta.ResetVersion + uint64(s.suite.Matrix.TotalVotes()+s.tasks))
	s.journal = j
	metricSessionsRecovered.Inc()
	return s, nil
}

// shardFor hashes the session id (FNV-1a) onto a shard.
func (e *Engine) shardFor(id string) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return &e.shards[h&(numShards-1)]
}

// Create registers a new session over a population of n items. It fails on
// an empty or duplicate id, a non-positive population, or a population whose
// suites would hold more than window.MaxItemStates per-item states. When
// MaxSessions is reached, the least-recently-used session is evicted first.
// On a durable engine an id with journal files on disk counts as a duplicate
// even when it is not in memory — recovered-but-evicted state is never
// silently overwritten; Load it or Delete it first. A store that cannot make
// the session's files durable fails the create with a *JournalError and
// keeps nothing of it.
func (e *Engine) Create(id string, n int, cfg SessionConfig) (*Session, error) {
	if id == "" {
		return nil, fmt.Errorf("engine: empty session id")
	}
	if n <= 0 {
		return nil, fmt.Errorf("engine: population size %d must be positive", n)
	}
	suites := 1
	if cfg.Window != nil {
		if err := cfg.Window.Validate(); err != nil {
			return nil, err
		}
		suites += cfg.Window.Panes()
	}
	// Bound the O(items) allocation before the duplicate check and any
	// eviction, so a refused create never costs another session its place.
	// Recovery does not check it: it reads meta written after this check,
	// and a data dir written by an older build must still open.
	if n > window.MaxItemStates/suites {
		return nil, fmt.Errorf("engine: population %d exceeds the limit of %d items for %d suite(s) (%d per-item states)",
			n, window.MaxItemStates/suites, suites, window.MaxItemStates)
	}
	// Reject duplicates before evicting or building anything: a retried
	// create of an existing id must not cost an unrelated session its state
	// (the insert below re-checks under the shard lock, so a concurrent
	// same-id create still cannot slip through).
	if _, dup := e.Get(id); dup {
		return nil, fmt.Errorf("engine: session %q already exists", id)
	}
	// OnEvict must fire after the id lock is released (deferred LIFO: this
	// runs after the unlock below), so the callback may re-enter the engine.
	var evicted []string
	defer func() { e.notifyEvicted(evicted) }()
	if e.store != nil {
		// Hold this id's transition lock across directory creation and table
		// insertion so a concurrent Load of the same id cannot observe the
		// files of a session that is not registered yet (and recover a second
		// journal onto them). Creates and loads of other ids proceed.
		l := e.lockID(id)
		defer e.unlockID(id, l)
		if e.store.Exists(id) {
			return nil, fmt.Errorf("engine: session %q already exists on disk", id)
		}
	}
	if e.max > 0 {
		for int(e.count.Load()) >= e.max {
			victim, ok := e.evictLRU(id)
			if !ok {
				break
			}
			evicted = append(evicted, victim)
		}
	}
	// Build the suite outside the shard lock: construction is O(N) and must
	// not stall unrelated lookups on the same shard.
	s := NewSession(id, n, cfg)
	if e.store != nil {
		raw, err := json.Marshal(cfg)
		if err != nil {
			return nil, fmt.Errorf("engine: encode session config: %w", err)
		}
		j, err := e.store.Create(wal.Meta{ID: id, Items: n, CreatedAt: s.created, Config: raw})
		if err != nil {
			return nil, &JournalError{SessionID: id, Err: err}
		}
		s.journal = j
	}
	sh := e.shardFor(id)
	sh.mu.Lock()
	if _, dup := sh.sessions[id]; dup {
		sh.mu.Unlock()
		if s.journal != nil {
			s.closeJournal()
			_, _ = e.store.Delete(id)
		}
		return nil, fmt.Errorf("engine: session %q already exists", id)
	}
	sh.sessions[id] = s
	sh.mu.Unlock()
	e.count.Add(1)
	metricSessionsCreated.Inc()
	return s, nil
}

// evictLRU removes the least-recently-used session from memory, skipping
// keep (the id about to be created). On a durable engine the victim's
// journal is flushed and closed under the victim's id lock, so a concurrent
// Load of the victim cannot recover its files while its journal still has
// buffered frames — and, conversely, a victim mid-Load is not detached until
// its load finished. It returns the evicted id; notifying OnEvict is the
// caller's job, after it has released every engine lock — the callback may
// re-enter the engine.
func (e *Engine) evictLRU(keep string) (string, bool) {
	var (
		victim     string
		victimLast int64
	)
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.RLock()
		for id, s := range sh.sessions {
			if id == keep {
				continue
			}
			if last := s.lastUsed.Load(); victim == "" || last < victimLast {
				victim, victimLast = id, last
			}
		}
		sh.mu.RUnlock()
	}
	if victim == "" {
		return "", false
	}
	// Deadlock-free even though the caller already holds its own id's lock:
	// victims are live sessions, an in-flight Create/Load's own id is never
	// live before its insert, and whoever holds a live id's lock (Delete,
	// another evictor, a just-finishing Load) releases it without waiting on
	// further id locks — waits form a chain, never a cycle.
	l := e.lockID(victim)
	s, ok := e.detach(victim)
	if ok {
		s.closeJournal()
	}
	e.unlockID(victim, l)
	if ok {
		e.evictions.Add(1)
		metricEvictions.Inc()
		return victim, true
	}
	return "", false
}

// notifyEvicted fires OnEvict for each victim. Callers defer it before
// taking loadMu so the callbacks run after every engine lock is released
// and may safely re-enter the engine.
func (e *Engine) notifyEvicted(victims []string) {
	if e.onEvict == nil {
		return
	}
	for _, id := range victims {
		e.onEvict(id)
	}
}

// detach removes a session from the table without touching its files.
func (e *Engine) detach(id string) (*Session, bool) {
	sh := e.shardFor(id)
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	if ok {
		delete(sh.sessions, id)
	}
	sh.mu.Unlock()
	if ok {
		e.count.Add(-1)
	}
	return s, ok
}

// Load revives a journaled session that is not in memory (evicted, or
// written by an earlier process when the engine skipped boot recovery). It
// is a no-op returning the live session when one exists.
//
// Cold loads singleflight per id: concurrent Loads of N distinct evicted
// sessions replay their journals concurrently (no global lock), while
// duplicate concurrent Loads of one id coalesce — the first does the replay,
// the rest block on the id's transition lock and then find the live session.
func (e *Engine) Load(id string) (*Session, error) {
	if s, ok := e.Get(id); ok {
		return s, nil
	}
	if e.store == nil {
		return nil, fmt.Errorf("engine: not durable; session %q cannot be loaded", id)
	}
	// Deferred before the lock so eviction callbacks run after the unlock
	// and may re-enter the engine.
	var evicted []string
	defer func() { e.notifyEvicted(evicted) }()
	l := e.lockID(id)
	defer e.unlockID(id, l)
	if s, ok := e.Get(id); ok {
		return s, nil // a concurrent load won the id lock first; coalesce
	}
	if !e.store.Exists(id) {
		return nil, fmt.Errorf("engine: no journaled session %q", id)
	}
	if e.max > 0 {
		for int(e.count.Load()) >= e.max {
			victim, ok := e.evictLRU(id)
			if !ok {
				break
			}
			evicted = append(evicted, victim)
		}
	}
	metricLoadsInflight.Inc()
	sc := replayScratchPool.Get().(*replayScratch)
	s, err := e.recoverSession(id, sc)
	replayScratchPool.Put(sc)
	metricLoadsInflight.Dec()
	if err != nil {
		return nil, err
	}
	sh := e.shardFor(id)
	sh.mu.Lock()
	sh.sessions[id] = s
	sh.mu.Unlock()
	e.count.Add(1)
	metricSessionLoads.Inc()
	return s, nil
}

// GetOrLoad returns the session registered under id, transparently reviving
// it from disk on a durable engine.
func (e *Engine) GetOrLoad(id string) (*Session, bool) {
	if s, ok := e.Get(id); ok {
		return s, true
	}
	if e.store == nil || !e.store.Exists(id) {
		return nil, false
	}
	s, err := e.Load(id)
	return s, err == nil
}

// live snapshots the current session pointers (for whole-engine sweeps that
// must not hold shard locks while touching sessions).
func (e *Engine) live() []*Session {
	out := make([]*Session, 0, e.Len())
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.RLock()
		for _, s := range sh.sessions {
			out = append(out, s)
		}
		sh.mu.RUnlock()
	}
	return out
}

// Checkpoint forces a durable point for every live session: buffered frames
// are fsynced and, where enough sealed history has accumulated, folded into
// a snapshot. No-op on in-memory engines.
func (e *Engine) Checkpoint() error {
	var firstErr error
	for _, s := range e.live() {
		if err := s.checkpointJournal(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close checkpoints and closes every live session's journal, then stops the
// store's group-commit syncer. Sessions stay readable in memory, but further
// durable mutations fail; Close is the final flush on shutdown, and calling
// it again is a harmless no-op. No-op on in-memory engines.
func (e *Engine) Close() error {
	if e.store == nil {
		return nil
	}
	var firstErr error
	for _, s := range e.live() {
		if err := s.checkpointJournal(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := s.closeJournal(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := e.store.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// SetPolicy attaches (or, with empty raw, detaches) a quality-gate policy
// document to the session registered under id. The document is opaque JSON —
// validation is the API layer's job — persisted in the session's meta.json on
// a durable engine, so it survives restart and revival. The disk write
// happens under the id's transition lock (serialized against Create, Load,
// Delete and eviction of the same id) and BEFORE the in-memory publish, so a
// crash between the two leaves the durable state ahead, never behind.
func (e *Engine) SetPolicy(id string, raw []byte) error {
	s, ok := e.GetOrLoad(id)
	if !ok {
		return fmt.Errorf("engine: unknown session %q", id)
	}
	if e.store != nil {
		l := e.lockID(id)
		err := e.store.SetPolicy(id, raw)
		e.unlockID(id, l)
		if err != nil {
			return fmt.Errorf("engine: session %q: persist policy: %w", id, err)
		}
	}
	s.setPolicy(raw)
	return nil
}

// Get returns the session registered under id.
func (e *Engine) Get(id string) (*Session, bool) {
	sh := e.shardFor(id)
	sh.mu.RLock()
	s, ok := sh.sessions[id]
	sh.mu.RUnlock()
	return s, ok
}

// Delete removes the session registered under id — and, on a durable engine,
// its journal files (including those of an evicted, no-longer-live session) —
// reporting whether anything existed. Callers still holding the *Session can
// keep reading it; on a durable engine mutations through the stale handle
// fail with a *JournalError rather than silently diverging from the deleted
// journal.
func (e *Engine) Delete(id string) bool {
	if e.store != nil {
		// Serialize against a Load of the same id: files must not be removed
		// while a concurrent recovery is replaying (and about to reopen) them.
		l := e.lockID(id)
		defer e.unlockID(id, l)
	}
	s, ok := e.detach(id)
	if ok {
		s.closeJournal()
	}
	if e.store != nil {
		// Unconditional: a directory without meta.json (aborted create) must
		// still be deletable even though Exists/Load would not see it.
		removed, _ := e.store.Delete(id)
		if ok || removed {
			metricSessionsDeleted.Inc()
		}
		return ok || removed
	}
	if ok {
		metricSessionsDeleted.Inc()
	}
	return ok
}

// Len returns the number of live sessions.
func (e *Engine) Len() int { return int(e.count.Load()) }

// Evictions returns the number of sessions evicted by the MaxSessions
// policy.
func (e *Engine) Evictions() int64 { return e.evictions.Load() }

// IDs returns every session id, sorted. On a durable engine this includes
// journaled sessions currently evicted from memory, best-effort: if the data
// directory is momentarily unreadable, the listing degrades to the live
// sessions (the sessions themselves remain loadable via Load/GetOrLoad).
func (e *Engine) IDs() []string {
	seen := make(map[string]struct{}, e.Len())
	out := make([]string, 0, e.Len())
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.RLock()
		for id := range sh.sessions {
			if _, dup := seen[id]; !dup {
				seen[id] = struct{}{}
				out = append(out, id)
			}
		}
		sh.mu.RUnlock()
	}
	if e.store != nil {
		if diskIDs, err := e.store.IDs(); err == nil {
			for _, id := range diskIDs {
				if _, dup := seen[id]; !dup {
					seen[id] = struct{}{}
					out = append(out, id)
				}
			}
		}
	}
	sort.Strings(out)
	return out
}
