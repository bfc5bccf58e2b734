// Package dqm implements the Data Quality Metric of Chung, Krishnan and
// Kraska: "A Data Quality Metric (DQM): How to Estimate the Number of
// Undetected Errors in Data Sets" (PVLDB 10(10), 2017).
//
// The library estimates how many errors remain undetected in a dataset after
// fallible (crowd or algorithmic) cleaning passes, without ground truth or a
// complete rule set. Feed worker votes (item, worker, dirty/clean) in task
// order into a Recorder and read estimates at any point:
//
//	rec := dqm.NewRecorder(nItems, dqm.Defaults())
//	for _, task := range tasks {
//	    for _, v := range task {
//	        rec.Record(v.Item, v.Worker, v.Dirty)
//	    }
//	    rec.EndTask()
//	}
//	est := rec.Estimates()
//	fmt.Println(est.Switch.Total, est.Switch.Total-est.Voting) // total, remaining
//
// For serving many datasets concurrently, use an Engine: it manages
// independent, individually locked sessions (one per dataset) with batch
// ingest and LRU eviction. A Recorder is exactly one such session;
// cmd/dqm-serve exposes the Engine over HTTP. Every estimate is a
// deterministic function of the vote stream, so rolling a session back is
// Session.Reset followed by a replay of the tasks to keep.
//
//	eng := dqm.NewEngine(dqm.EngineConfig{})
//	sess, _ := eng.CreateSession("orders-2026-07", nItems, dqm.Defaults())
//	_ = sess.AppendVotes(batch, true) // one task per batch
//	est := sess.Estimates()
//
// Engines can be durable: OpenEngine(dir, cfg) write-ahead-journals every
// session's votes (group-committed, CRC-framed, snapshot-compacted) and
// recovers all sessions on reopen with bit-identical estimator state, so the
// estimate survives a crash of the process consulting it mid-cleaning.
//
// The read path is built for heavy polling: while a session is being read,
// every mutation publishes its estimates to a slot that Estimates copies
// without the session lock (Session.Version exposes the underlying mutation
// counter for change detection), and sessions created with Config.Window
// additionally serve windowed estimates — the quality of the last N tasks,
// tumbling or sliding, plus an exponentially decayed aggregate
// (Session.WindowEstimates) — for streams whose error rate drifts.
//
// Estimators implemented (paper section in parentheses):
//
//   - Nominal (§2.2.1) and Voting (§2.2.2) — descriptive baselines;
//   - Extrapolate (§2.2.3) — predictive baseline from a clean sample;
//   - Chao92 (§3.2) — species estimation over positive votes;
//   - VChao92 (§3.3) — shifted fingerprint, robust to false positives;
//   - Switch (§4) — the paper's contribution: estimate remaining consensus
//     switches and correct the majority vote with the trend-selected side.
//
// A session evaluates all five of NOMINAL, VOTING, CHAO92, V-CHAO and SWITCH,
// or the subset Config.Estimators names. The internal packages supply the
// full reproduction substrate (datasets, crowd simulation, prioritization,
// experiment harness); see DESIGN.md.
package dqm

import (
	"errors"
	"fmt"
	"time"

	"dqm/internal/engine"
	"dqm/internal/estimator"
	"dqm/internal/switchstat"
	"dqm/internal/votelog"
	"dqm/internal/votes"
	"dqm/internal/wal"
	"dqm/internal/window"
)

// Vote is one worker judgment: worker Worker looked at item Item and marked
// it dirty (erroneous) or clean.
type Vote struct {
	Item   int
	Worker int
	Dirty  bool
}

// TiePolicy selects how consensus switches are counted (§4.1 notes the
// definition admits different tie policies).
type TiePolicy int

const (
	// TieFlip is Equation 7 verbatim: every running-vote tie flips the
	// consensus (the paper's definition; the default).
	TieFlip TiePolicy = iota
	// StrictMajority flips only when the strict vote majority crosses the
	// current consensus; ties are sticky.
	StrictMajority
)

// Config tunes the estimator suite of a Recorder or session. The zero value
// is NOT valid; start from Defaults.
type Config struct {
	// VChaoShift is the fingerprint shift s of vChao92 (§3.3); the paper
	// uses 1.
	VChaoShift int
	// TiePolicy selects the switch-counting rule.
	TiePolicy TiePolicy
	// TrendWindow fixes the task window of the §4.3 trend detector, capped
	// at the tasks observed so far; 0 selects the adaptive default
	// max(12, ⌊observedTasks/3⌋).
	TrendWindow int
	// CapToPopulation clamps estimates into [0, N]; enable it when the item
	// space is a closed candidate set.
	CapToPopulation bool
	// TrackConfidence retains per-item switch ledgers so that
	// Recorder.SwitchCI can compute bootstrap confidence intervals. Costs
	// O(observed switches) extra memory.
	TrackConfidence bool
	// Estimators selects the evaluated estimators by name, out of the five
	// EstimatorNames returns; nil selects all five. Estimators left out report
	// zero in Estimates.
	Estimators []string
	// Window, when set, additionally runs the selected estimators over
	// task-count windows — "the quality of the last N tasks" — alongside the
	// all-time estimate. Nil disables windowed estimation.
	Window *WindowConfig
}

// WindowConfig parameterizes windowed estimation (see Session.WindowEstimates).
type WindowConfig struct {
	// Size is the window length in completed tasks (> 0).
	Size int
	// Stride is the task offset between successive window starts: 0 or Size
	// selects tumbling windows, smaller values sliding windows built from
	// ceil(Size/Stride) staggered panes. Every vote feeds every open pane, so
	// the pane count multiplies ingest cost; it is capped at 64.
	Stride int
	// DecayAlpha in (0, 1] is the weight of the newest completed window in
	// the exponentially decayed aggregate; 0 disables WindowDecayed reads.
	DecayAlpha float64
}

// Validate reports whether the configuration is serveable; Engine.CreateSession
// validates automatically, NewRecorder panics on invalid configs.
func (c WindowConfig) Validate() error { return c.internal().Validate() }

func (c WindowConfig) internal() window.Config {
	return window.Config{Size: c.Size, Stride: c.Stride, DecayAlpha: c.DecayAlpha}
}

// WindowKind selects a windowed view.
type WindowKind int

const (
	// WindowCurrent is the oldest still-open window: the most recent
	// up-to-Size completed tasks. Moves with every vote.
	WindowCurrent WindowKind = iota
	// WindowLast is the most recently completed full window; stable between
	// rotations.
	WindowLast
	// WindowDecayed is the exponentially decayed aggregate over completed
	// windows (requires WindowConfig.DecayAlpha > 0).
	WindowDecayed
)

// String implements fmt.Stringer ("current", "last", "decayed").
func (k WindowKind) String() string { return window.Kind(k).String() }

// ParseWindowKind inverts WindowKind.String; API layers use it for the
// ?window= query parameter.
func ParseWindowKind(s string) (WindowKind, error) {
	k, err := window.ParseKind(s)
	return WindowKind(k), err
}

// WindowEstimates is one windowed estimate read.
type WindowEstimates struct {
	// Estimates is the estimator snapshot over the window's tasks (for
	// WindowDecayed, the decayed aggregate).
	Estimates Estimates
	// Kind is the view that produced the result.
	Kind WindowKind
	// Start and End delimit the covered task interval [Start, End).
	Start, End int64
	// Tasks is the number of completed tasks covered (< Size only for a
	// partial WindowCurrent early in a window).
	Tasks int64
	// Complete reports a full Size-task window.
	Complete bool
}

// Defaults returns the paper-faithful configuration.
func Defaults() Config {
	return Config{VChaoShift: 1, TiePolicy: TieFlip}
}

// suiteConfig lowers the public Config to the internal estimator
// configuration shared by Recorder and Engine sessions.
func (c Config) suiteConfig() estimator.SuiteConfig {
	policy := switchstat.PolicyTieFlip
	if c.TiePolicy == StrictMajority {
		policy = switchstat.PolicyStrictMajority
	}
	return estimator.SuiteConfig{
		Estimators: c.Estimators,
		VChao92:    estimator.VChao92Config{Shift: c.VChaoShift},
		Switch: estimator.SwitchConfig{
			Policy:          policy,
			TrendWindow:     c.TrendWindow,
			CapToPopulation: c.CapToPopulation,
			RetainLedgers:   c.TrackConfidence,
		},
		CapToPopulation: c.CapToPopulation,
	}
}

// sessionConfig lowers the public Config to the engine's session
// configuration.
func (c Config) sessionConfig() engine.SessionConfig {
	sc := engine.SessionConfig{Suite: c.suiteConfig()}
	if c.Window != nil {
		w := c.Window.internal()
		sc.Window = &w
	}
	return sc
}

// EstimatorNames returns the five estimator names, sorted; these are the
// values Config.Estimators accepts.
func EstimatorNames() []string { return estimator.RegisteredNames() }

// SwitchEstimate mirrors the full SWITCH output (§4): the corrected total,
// the remaining positive/negative switch estimates ξ⁺/ξ⁻ and the detected
// majority trend.
type SwitchEstimate struct {
	// Total is the trend-corrected total error estimate of §4.3.
	Total float64
	// Majority is the majority-vote count SWITCH corrects: the same strict
	// majority count as Estimates.Voting, kept whether or not VOTING is
	// selected.
	Majority float64
	// XiPos and XiNeg estimate the remaining positive (clean→dirty) and
	// negative (dirty→clean) consensus switches.
	XiPos, XiNeg float64
	// RemainingSwitches is the Problem-2 answer: expected consensus flips
	// (either sign) still to come.
	RemainingSwitches float64
	// TrendUp/TrendDown report the detected majority trend (both false =
	// flat).
	TrendUp, TrendDown bool
}

// Estimates is a snapshot of every estimator at one point of the vote
// stream.
type Estimates struct {
	// Nominal is c_nominal: items marked dirty by at least one worker.
	Nominal float64
	// Voting is c_majority: items with a dirty strict majority.
	Voting float64
	// Chao92 is the species estimate of the total distinct errors.
	Chao92 float64
	// VChao92 is the shifted, false-positive-robust variant.
	VChao92 float64
	// Switch is the paper's SWITCH estimate.
	Switch SwitchEstimate
}

// Remaining returns the estimated number of still-undetected errors
// according to the SWITCH estimator: its total minus the current majority
// count, floored at zero.
func (e Estimates) Remaining() float64 {
	r := e.Switch.Total - e.Switch.Majority
	if r < 0 {
		return 0
	}
	return r
}

// fromInternal converts the internal estimate snapshot.
func fromInternal(e estimator.Estimates) Estimates {
	return Estimates{
		Nominal: e.Nominal,
		Voting:  e.Voting,
		Chao92:  e.Chao92,
		VChao92: e.VChao92,
		Switch: SwitchEstimate{
			Total:             e.Switch.Total,
			Majority:          e.Switch.Majority,
			XiPos:             e.Switch.XiPos,
			XiNeg:             e.Switch.XiNeg,
			RemainingSwitches: e.Switch.RemainingSwitches,
			TrendUp:           e.Switch.Trend == estimator.TrendUp,
			TrendDown:         e.Switch.Trend == estimator.TrendDown,
		},
	}
}

// ConfidenceInterval is a two-sided bootstrap percentile interval.
type ConfidenceInterval struct {
	Lo, Hi float64
	Level  float64
}

// Contains reports whether v lies within the interval.
func (c ConfidenceInterval) Contains(v float64) bool { return v >= c.Lo && v <= c.Hi }

// Recorder ingests a vote stream and evaluates the estimator suite. It is
// exactly one standalone, in-memory engine session: it has Session's entire
// method set — so it is safe for concurrent use, with votes serialized in
// arrival order — plus the void Record, RecordVote and EndTask. Those cannot
// hit a journal error, so the only failure they can meet is an out-of-range
// item, on which they panic. On an engine Session, AppendVotes(batch, false)
// and AppendVotes(nil, true) do the same work and return errors instead.
type Recorder struct {
	Session
}

// NewRecorder creates a recorder over a population of n items (records, or
// candidate pairs for entity resolution). It panics on an unknown estimator
// name in Config.Estimators and on an invalid Config.Window; validate user
// input with EstimatorNames/WindowConfig.Validate first, or create sessions
// through an Engine, which returns errors instead.
func NewRecorder(n int, cfg Config) *Recorder {
	return &Recorder{Session{s: engine.NewSession("", n, cfg.sessionConfig())}}
}

// Record ingests one vote. It panics on an item outside [0, N); external
// input should go through AppendVotes, which validates and rejects whole
// batches atomically.
func (r *Recorder) Record(item, worker int, dirty bool) {
	if err := r.s.Record(item, worker, dirty); err != nil {
		panic(err)
	}
}

// RecordVote ingests one Vote.
func (r *Recorder) RecordVote(v Vote) { r.Record(v.Item, v.Worker, v.Dirty) }

// EndTask marks a task boundary. The SWITCH trend detector operates on the
// per-task majority series.
func (r *Recorder) EndTask() {
	if err := r.s.EndTask(); err != nil {
		panic(err)
	}
}

// IsJournalError reports whether err came from a durable session's
// write-ahead journal — an infrastructure fault (disk full, journal closed
// by eviction or engine Close), not invalid input. The failed mutation was
// not applied, and further durable mutations on that session will keep
// failing until it is reloaded; API layers should surface these as server
// errors, not client errors.
func IsJournalError(err error) bool {
	var je *engine.JournalError
	return errors.As(err, &je)
}

// ErrBatchTooLarge is wrapped by the error a durable session returns for a
// vote batch, or a DQMV task, too large for one journal frame (64 MiB). It
// is invalid input, not a journal fault: nothing of the batch is applied and
// the session keeps accepting writes.
var ErrBatchTooLarge = wal.ErrBatchTooLarge

// Extrapolate is the §2.2.3 predictive baseline: scale the errsFound
// discovered in a perfectly cleaned sample of sampleSize up to the
// population.
func Extrapolate(errsFound, sampleSize, population int) float64 {
	return estimator.Extrapolate(errsFound, sampleSize, population)
}

// FsyncPolicy selects when a durable engine flushes journal writes to stable
// storage (see EngineConfig.Fsync).
type FsyncPolicy int

const (
	// FsyncBatch (the default) group-commits: frames accumulate in a
	// user-space buffer that a background flusher drains and fsyncs at
	// least once per FsyncInterval (and always on checkpoint and close).
	// A crash loses at most roughly the last interval of acknowledged
	// votes.
	FsyncBatch FsyncPolicy = iota
	// FsyncAlways fsyncs every ingest batch before acknowledging it.
	FsyncAlways
	// FsyncNever leaves flushing to the OS; a clean Close still syncs.
	FsyncNever
)

// String returns the policy's flag spelling ("batch", "always", "never").
func (p FsyncPolicy) String() string { return wal.FsyncPolicy(p).String() }

// EngineConfig parameterizes an Engine.
type EngineConfig struct {
	// Shards is the number of independently locked session-table shards
	// (rounded up to a power of two); 0 selects 16. Raise it when many
	// goroutines create and look up sessions concurrently.
	Shards int
	// MaxSessions bounds the number of live sessions; creating one more
	// evicts the least-recently-used session first. 0 means unlimited. On a
	// durable engine eviction only releases memory — the session's journal
	// files survive and Session(id) revives it on demand. Do not retain
	// *Session handles across evictions on a durable engine: the evicted
	// handle's journal is closed, so every mutator on it (AppendVotes,
	// AppendDQMV, Reset) returns an error that IsJournalError reports;
	// re-fetch the session via Session(id) instead.
	MaxSessions int
	// OnEvict, when set, is called with the id of every session removed by
	// the MaxSessions policy (not by DeleteSession), after removal and with
	// no engine lock held (the callback may call back into the engine) — use
	// it to release any per-session state held outside the engine.
	OnEvict func(sessionID string)
	// DataDir enables durability: every session write-ahead-journals its
	// votes under this directory and is recovered — bit-identical — when the
	// engine is reopened. Empty means in-memory only. Prefer OpenEngine,
	// which reports recovery errors; NewEngine panics on them.
	DataDir string
	// Fsync selects the journal flush policy when DataDir is set.
	Fsync FsyncPolicy
	// FsyncInterval is the maximum fsync staleness under FsyncBatch;
	// 0 selects 100ms.
	FsyncInterval time.Duration
	// RecoveryParallelism bounds how many journaled sessions OpenEngine
	// replays concurrently during boot recovery. 0 selects GOMAXPROCS; 1
	// recovers serially. Recovered state is bit-identical at any setting —
	// sessions are independent journals — so this only trades boot wall-clock
	// against replay CPU/IO concurrency.
	RecoveryParallelism int
	// BootstrapParallelism bounds the worker pool each session fans
	// bootstrap confidence-interval replicates over. 0 selects a per-CPU
	// default (capped at 8); 1 computes replicates serially. Intervals are
	// bit-identical at any setting — replicate RNG streams are addressed by
	// index, so the fan-out only changes wall-clock.
	BootstrapParallelism int
}

// walOptions lowers the public durability knobs.
func (cfg EngineConfig) engineConfig() engine.Config {
	return engine.Config{
		Shards:               cfg.Shards,
		MaxSessions:          cfg.MaxSessions,
		OnEvict:              cfg.OnEvict,
		DataDir:              cfg.DataDir,
		RecoveryParallelism:  cfg.RecoveryParallelism,
		BootstrapParallelism: cfg.BootstrapParallelism,
		WAL: wal.Options{
			Fsync:         wal.FsyncPolicy(cfg.Fsync),
			BatchInterval: cfg.FsyncInterval,
		},
	}
}

// Engine manages many concurrent, independent estimation sessions — one per
// dataset being cleaned. All methods are safe for concurrent use.
type Engine struct {
	e *engine.Engine
}

// NewEngine creates an engine. With cfg.DataDir set it behaves like
// OpenEngine but panics on a recovery error; programs that must handle
// corrupt or unreadable data directories should call OpenEngine instead.
func NewEngine(cfg EngineConfig) *Engine {
	if cfg.DataDir == "" {
		return &Engine{e: engine.New(cfg.engineConfig())}
	}
	eng, err := OpenEngine(cfg.DataDir, cfg)
	if err != nil {
		panic(fmt.Sprintf("dqm: NewEngine: %v", err))
	}
	return eng
}

// OpenEngine opens a durable engine over the data directory dir (created if
// missing): every session journals its votes ahead of applying them, and
// every journaled session found in dir is recovered before OpenEngine
// returns, with estimator state bit-identical to the moment of its last
// durable write. Close the engine to flush final checkpoints.
func OpenEngine(dir string, cfg EngineConfig) (*Engine, error) {
	cfg.DataDir = dir
	if dir == "" {
		return nil, fmt.Errorf("dqm: OpenEngine: empty data directory")
	}
	eng, err := engine.Open(cfg.engineConfig())
	if err != nil {
		return nil, err
	}
	return &Engine{e: eng}, nil
}

// Durable reports whether the engine persists sessions to a data directory.
func (e *Engine) Durable() bool { return e.e.Durable() }

// Checkpoint forces a durable point for every live session: buffered journal
// frames are fsynced and, where enough history has accumulated, compacted
// into a snapshot. No-op on in-memory engines.
func (e *Engine) Checkpoint() error { return e.e.Checkpoint() }

// Close flushes a final checkpoint of every live session and closes the
// journals. The engine must not ingest afterwards. No-op on in-memory
// engines.
func (e *Engine) Close() error { return e.e.Close() }

// CreateSession registers a new session over a population of n items. It
// fails on an empty or duplicate id, a non-positive population, an
// unknown estimator name in cfg.Estimators, an invalid cfg.Window, or a
// population too large for its suites: n × (1 + window panes) may not exceed
// 2²⁶ per-item states (256 MiB at create: 4 B per item state, 8 B once an
// item of its suite passes 255 votes, 16 B past 65,535).
func (e *Engine) CreateSession(id string, n int, cfg Config) (*Session, error) {
	if err := estimator.ValidateNames(cfg.Estimators); err != nil {
		return nil, err
	}
	s, err := e.e.Create(id, n, cfg.sessionConfig())
	if err != nil {
		return nil, err
	}
	return &Session{s: s}, nil
}

// Session returns the session registered under id. On a durable engine an
// evicted (or previously journaled) session is transparently revived from
// its journal.
func (e *Engine) Session(id string) (*Session, bool) {
	s, ok := e.e.GetOrLoad(id)
	if !ok {
		return nil, false
	}
	return &Session{s: s}, true
}

// DeleteSession removes the session registered under id — including, on a
// durable engine, its journal files — reporting whether it existed.
func (e *Engine) DeleteSession(id string) bool { return e.e.Delete(id) }

// SessionIDs returns every session id, sorted; on a durable engine this
// includes journaled sessions currently evicted from memory.
func (e *Engine) SessionIDs() []string { return e.e.IDs() }

// SetSessionPolicy attaches (or, with empty raw, detaches) an opaque
// quality-gate policy document to a session. The engine does not interpret
// the document — cmd/dqm-serve's policy layer (internal/policy) validates and
// evaluates it — but persists it in the session's metadata on a durable
// engine, so policies survive restart, eviction and revival.
func (e *Engine) SetSessionPolicy(id string, raw []byte) error { return e.e.SetPolicy(id, raw) }

// NumSessions returns the number of live sessions.
func (e *Engine) NumSessions() int { return e.e.Len() }

// Evictions returns the number of sessions evicted by the MaxSessions
// policy.
func (e *Engine) Evictions() int64 { return e.e.Evictions() }

// BootRecovery reports what OpenEngine's boot recovery did: how many
// journaled sessions were replayed eagerly and how long the (possibly
// parallel — see EngineConfig.RecoveryParallelism) replay took. Zero values
// on in-memory engines and empty data directories.
func (e *Engine) BootRecovery() (sessions int, elapsed time.Duration) { return e.e.BootRecovery() }

// Session is one engine-managed dataset session. All methods are safe for
// concurrent use; votes within a session are serialized in arrival order.
// Every mutator returns an error: a journal fault on a durable session is
// reported (see IsJournalError), never a panic. AppendVotes(nil, true) marks
// a bare task boundary.
type Session struct {
	s *engine.Session
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.s.ID() }

// CreatedAt returns the session creation time.
func (s *Session) CreatedAt() time.Time { return s.s.CreatedAt() }

// LastUsed returns the time of the most recent operation.
func (s *Session) LastUsed() time.Time { return s.s.LastUsed() }

// EstimatorNames returns the session's selected estimators in evaluation
// order.
func (s *Session) EstimatorNames() []string { return s.s.EstimatorNames() }

// AppendVotes ingests a batch of votes under one lock acquisition and, when
// endTask is set, marks a task boundary after the batch; AppendVotes(nil,
// true) marks a bare boundary, and AppendVotes(nil, false) does nothing,
// leaving the version where it was. Items outside [0, N) fail the whole batch
// before any vote is applied. On a durable engine a batch must fit in one
// 64 MiB journal frame, at 1 to 20 bytes a vote: any batch of up to three
// million votes does. A larger one that does not is refused whole with an
// error wrapping ErrBatchTooLarge, and the session keeps working.
func (s *Session) AppendVotes(batch []Vote, endTask bool) error {
	vs := make([]votes.Vote, len(batch))
	for i, v := range batch {
		label := votes.Clean
		if v.Dirty {
			label = votes.Dirty
		}
		vs[i] = votes.Vote{Item: v.Item, Worker: v.Worker, Label: label}
	}
	return s.s.Append(vs, endTask)
}

// AppendDQMV ingests a complete binary vote log (the DQMV format of
// internal/votelog: magic header, 'T' task records, 'V' vote records)
// through the columnar fast path: each task's raw vote bytes are decoded once
// into columns, validated, journaled from those columns as one WAL block
// record, and applied — no per-vote decode into structs. Task
// boundaries follow the format's task-id changes plus one after the final
// vote, exactly the boundaries the Entry/JSON path produces, so the
// resulting estimates are identical to ingesting the same log vote by vote.
// On a durable engine every task is journaled before any is applied and the
// journal commits once, so under FsyncAlways the call waits for one group
// commit that covers all its tasks, however many there are.
//
// It returns the number of votes and task boundaries ingested. A malformed
// stream fails before anything is applied. An out-of-population item in one
// task, or a task too large for one journal frame (ErrBatchTooLarge, see
// AppendVotes), leaves every earlier task applied (and, on a durable engine,
// journaled), applies nothing of that task or any later one, and reports how
// far it got. A journal error applies nothing of the log in memory and
// returns (0, 0) with an error that IsJournalError reports. Tasks staged
// before the fault may already be on disk and come back when the session is
// reloaded (after a restart, or on revival after eviction), so compare Tasks
// after the reload before re-sending the log.
func (s *Session) AppendDQMV(body []byte) (votesIngested, tasksEnded int, err error) {
	blocks, err := votelog.SplitBinaryTasks(body)
	if err != nil {
		return 0, 0, err
	}
	return s.s.AppendLog(blocks)
}

// Tasks returns the number of completed tasks.
func (s *Session) Tasks() int64 { return s.s.Tasks() }

// Estimates returns all selected estimators' values at the current position.
// While the session is being read, every mutation publishes its estimates to
// a slot that Estimates copies without the session lock, so estimate polling
// never contends with ingest; the first read of a session that went unread
// for more than 64 mutations evaluates them under the lock.
func (s *Session) Estimates() Estimates { return fromInternal(s.s.Estimates()) }

// Version returns the session's monotonic mutation counter: it advances on
// every applied mutation (votes, task boundaries, resets) and never repeats
// for distinct states. Poll it to detect change without reading estimates
// (the SSE watch endpoint of dqm-serve is built on it).
func (s *Session) Version() uint64 { return s.s.Version() }

// Notify registers ch to receive a non-blocking signal whenever the
// session's version advances — the event-driven alternative to polling
// Version. ch should be buffered (capacity 1 suffices): the signal is a
// level, not a count, so receivers re-read Version after each wakeup. A
// full channel is skipped, never blocked on; ingest stays allocation-free
// with notifiers registered. Unregister with StopNotify.
func (s *Session) Notify(ch chan<- struct{}) { s.s.AddNotifier(ch) }

// StopNotify unregisters a channel registered with Notify. One stale signal
// may still arrive after StopNotify returns (a concurrent mutation can load
// the notifier set before the swap); receivers must tolerate it.
func (s *Session) StopNotify(ch chan<- struct{}) { s.s.RemoveNotifier(ch) }

// PolicyJSON returns the session's attached quality-gate policy document
// (see Engine.SetSessionPolicy), or nil when none is attached. The returned
// bytes are shared and must not be mutated.
func (s *Session) PolicyJSON() []byte { return s.s.PolicyJSON() }

// Windowed reports whether the session was created with a window config.
func (s *Session) Windowed() bool { return s.s.Windowed() }

// WindowConfig returns the session's normalized window configuration
// (Stride filled in), and false for sessions without one.
func (s *Session) WindowConfig() (WindowConfig, bool) {
	w, ok := s.s.WindowConfig()
	if !ok {
		return WindowConfig{}, false
	}
	return WindowConfig{Size: w.Size, Stride: w.Stride, DecayAlpha: w.DecayAlpha}, true
}

// WindowEstimates evaluates the selected windowed view. It fails on sessions
// without a Config.Window and on views that are not available yet (no
// completed window, or WindowDecayed without DecayAlpha).
func (s *Session) WindowEstimates(kind WindowKind) (WindowEstimates, error) {
	res, err := s.s.WindowEstimates(window.Kind(kind))
	if err != nil {
		return WindowEstimates{}, err
	}
	return WindowEstimates{
		Estimates: fromInternal(res.Estimates),
		Kind:      WindowKind(res.Kind),
		Start:     res.Start,
		End:       res.End,
		Tasks:     res.Tasks,
		Complete:  res.Complete,
	}, nil
}

// MajorityDirty reports the current majority consensus for an item.
func (s *Session) MajorityDirty(item int) bool { return s.s.MajorityDirty(item) }

// NumItems returns the population size N.
func (s *Session) NumItems() int { return s.s.NumItems() }

// NumWorkers returns the number of distinct workers seen.
func (s *Session) NumWorkers() int { return s.s.NumWorkers() }

// TotalVotes returns the number of votes ingested.
func (s *Session) TotalVotes() int64 { return s.s.TotalVotes() }

// Reset clears the vote stream and every estimator, keeping the session
// registered. On a durable engine the reset is journaled first; a journal
// error leaves the session untouched.
func (s *Session) Reset() error { return s.s.Reset() }

// SwitchCI returns a bootstrap confidence interval for the SWITCH total
// estimate. The session must have been created with Config.TrackConfidence.
func (s *Session) SwitchCI(replicates int, level float64) (ConfidenceInterval, error) {
	ci, err := s.s.SwitchCI(replicates, level)
	if err != nil {
		return ConfidenceInterval{}, err
	}
	return ConfidenceInterval{Lo: ci.Lo, Hi: ci.Hi, Level: ci.Level}, nil
}

// Chao92CI returns a bootstrap confidence interval for the Chao92 total
// estimate.
func (s *Session) Chao92CI(replicates int, level float64) (ConfidenceInterval, error) {
	ci, err := s.s.Chao92CI(replicates, level)
	if err != nil {
		return ConfidenceInterval{}, err
	}
	return ConfidenceInterval{Lo: ci.Lo, Hi: ci.Hi, Level: ci.Level}, nil
}
