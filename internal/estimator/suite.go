package estimator

import (
	"fmt"
	"slices"

	"dqm/internal/votes"
)

// Suite evaluates a selected set of registered estimators over a single
// shared response matrix, avoiding one matrix copy per estimator. It is the
// unit the experiment harness advances task by task and the session engine
// wraps per dataset session.
type Suite struct {
	// Matrix is the shared response matrix every matrix-derived member reads.
	Matrix *votes.Matrix
	// Switch is the streaming SWITCH member, nil when NameSwitch is not
	// selected. Exposed for consumers that need the full SwitchEstimate or
	// the bootstrap CI machinery.
	Switch *SwitchEstimator

	// members holds every selected estimator in selection order; streaming
	// lists the subset that actually consumes votes (members reading the
	// shared matrix are fed through Matrix once, not per member).
	members   []Estimator
	streaming []Estimator
	// extras holds, per member, its name if it is not a standard member and
	// "" if it is; EstimateAll makes an Extra map only for a non-empty one,
	// so it stays allocation-free in the common all-standard case.
	extras []string

	cfg SuiteConfig
	n   int

	// version counts mutations (Observe, EndTask, Reset) monotonically. It is
	// the cache key of the EstimateAll memo and the signal the session layer
	// publishes to lock-free readers.
	version uint64
	// voteVersion counts only the mutations that touch the shared matrix
	// (Observe, Reset) — EndTask advances version but not voteVersion. It is
	// the dirty bit of the matrix-derived members: when a stale memo differs
	// from the live state only by EndTask calls, those members are provably
	// unchanged and EstimateAll skips re-evaluating them.
	voteVersion uint64
	// memo caches the last EstimateAll result and is refreshed IN PLACE on
	// stale reads (only the members whose inputs changed re-run, and the Extra
	// map is reused — its key set is fixed at construction). memo.Extra is
	// privately owned (cloned out) so a caller mutating a returned Extra map
	// cannot corrupt the cache.
	memo            Estimates
	memoVersion     uint64
	memoVoteVersion uint64
	memoValid       bool
}

// SuiteConfig configures a Suite.
type SuiteConfig struct {
	// Estimators selects the members by registered name, evaluated in order.
	// Nil selects StandardNames() (every paper estimator). NewSuite panics on
	// an unregistered name; validate user-supplied selections first with
	// ValidateNames.
	Estimators []string
	// VChao92 parameterizes the V-CHAO member (default shift 1, the paper's
	// setting).
	VChao92 VChao92Config
	// Switch parameterizes the SWITCH member.
	Switch SwitchConfig
	// CapToPopulation clamps all species estimates into [0, N].
	CapToPopulation bool
}

// normalize applies the paper-default parameter fallbacks.
func (cfg SuiteConfig) normalize() SuiteConfig {
	if cfg.VChao92.Shift == 0 {
		cfg.VChao92.Shift = 1
	}
	cfg.Switch.CapToPopulation = cfg.Switch.CapToPopulation || cfg.CapToPopulation
	if cfg.Estimators == nil {
		cfg.Estimators = StandardNames()
	}
	return cfg
}

// NewSuite creates a suite over n items. It panics on an unregistered
// estimator name (a programmer error; API layers validate selections with
// ValidateNames before building sessions). A name listed more than once is
// built once: each later listing reuses the first listing's member, which
// the suite feeds once per vote, and Names keeps every listing.
func NewSuite(n int, cfg SuiteConfig) *Suite {
	cfg = cfg.normalize()
	s := &Suite{
		Matrix: votes.NewMatrix(n),
		cfg:    cfg,
		n:      n,
	}
	env := Env{N: n, Matrix: s.Matrix, Config: cfg}
	for _, name := range cfg.Estimators {
		if first := slices.Index(cfg.Estimators, name); first < len(s.members) {
			// A second SWITCH tracker would keep its state in the same
			// matrix rows as the first and count each switch twice.
			s.members = append(s.members, s.members[first])
			s.extras = append(s.extras, s.extras[first])
			continue
		}
		member, err := New(name, env)
		if err != nil {
			panic(fmt.Sprintf("estimator: NewSuite: %v", err))
		}
		s.addMember(name, member)
	}
	return s
}

// addMember wires one built member into the suite's dispatch lists.
func (s *Suite) addMember(name string, member Estimator) {
	s.members = append(s.members, member)
	if !IsStandardName(name) {
		s.extras = append(s.extras, name)
	} else {
		s.extras = append(s.extras, "")
	}
	if sw, ok := member.(*switchMember); ok {
		s.Switch = sw.est
	}
	if mm, ok := member.(sharedMatrixMember); ok && mm.sharesMatrix() {
		return // fed through the shared matrix; skip per-vote dispatch
	}
	s.streaming = append(s.streaming, member)
}

// Names returns the selected estimator names in evaluation order.
func (s *Suite) Names() []string {
	out := make([]string, len(s.members))
	for i, m := range s.members {
		out[i] = m.Name()
	}
	return out
}

// Config returns the (normalized) configuration the suite was built with.
func (s *Suite) Config() SuiteConfig { return s.cfg }

// NumItems returns the population size N.
func (s *Suite) NumItems() int { return s.n }

// Version returns the monotonic mutation counter: it advances on every
// Observe, EndTask and Reset, and never goes backwards within one suite.
// Two reads of an equal version are guaranteed to see identical estimates.
func (s *Suite) Version() uint64 { return s.version }

// MemoState reports the memo's relationship to the live stream. EstimateAll
// will serve a clone of the memo (upToDate), refresh it in place re-running
// only changed members (valid but not upToDate), or evaluate every member
// (not valid). The session layer reads this to classify estimate latency by
// compute path.
func (s *Suite) MemoState() (valid, upToDate bool) {
	return s.memoValid, s.memoValid && s.memoVersion == s.version
}

// Observe ingests one vote into the shared matrix and then every streaming
// member; the SWITCH member reads the vote counts the matrix has just updated.
func (s *Suite) Observe(v votes.Vote) {
	s.version++
	s.voteVersion++
	s.Matrix.Add(v)
	for _, m := range s.streaming {
		m.Observe(v)
	}
}

// ObserveTask ingests a whole task's votes and marks the task boundary.
func (s *Suite) ObserveTask(task []votes.Vote) {
	for _, v := range task {
		s.Observe(v)
	}
	s.EndTask()
}

// EndTask marks a task boundary for the trend detectors.
func (s *Suite) EndTask() {
	s.version++
	for _, m := range s.streaming {
		m.EndTask()
	}
}

// Estimates is a snapshot of every estimator's total-error estimate.
type Estimates struct {
	Nominal float64
	Voting  float64
	Chao92  float64
	VChao92 float64
	Switch  SwitchEstimate
	// Extra holds estimates of non-standard registered members, keyed by
	// name; nil when only standard members are selected.
	Extra map[string]float64
}

// ByName returns the named estimate, matching the figure labels. Resolution
// goes through the shared name table of names.go, then Extra.
func (e Estimates) ByName(name string) float64 {
	for _, se := range standardEstimates {
		if se.name == name {
			return se.get(e)
		}
	}
	return e.Extra[name]
}

// Clone returns the snapshot with an independent copy of its Extra map (the
// only reference field), so two holders cannot alias each other's mutations.
// Every layer that caches or aggregates Estimates (the suite memo, the
// session read cache, the window ring) copies through here.
func (e Estimates) Clone() Estimates {
	if e.Extra == nil {
		return e
	}
	extra := make(map[string]float64, len(e.Extra))
	for k, v := range e.Extra {
		extra[k] = v
	}
	e.Extra = extra
	return e
}

// EstimateAll evaluates every member at the current stream position, memoized
// on the mutation version: repeated reads of an unchanged stream return the
// cached snapshot instead of re-running every estimator, and a stale memo is
// refreshed in place — only the members whose inputs changed since the memo
// was built re-run, and no intermediate snapshot is allocated. The result is
// bit-identical to EstimateAllUncached at every stream position (estimators
// are deterministic pure functions of their stream state; the property test
// in suite_incremental_test.go pins this). Members not selected leave their
// zero value in the snapshot.
func (s *Suite) EstimateAll() Estimates {
	if !s.memoValid || s.memoVersion != s.version {
		// Matrix-derived members are skippable when only EndTask calls
		// separate the memo from the live state.
		s.refreshMemo(s.memoValid && s.memoVoteVersion == s.voteVersion)
		s.memoVersion = s.version
		s.memoVoteVersion = s.voteVersion
		s.memoValid = true
	}
	return s.memo.Clone()
}

// refreshMemo re-evaluates members into the memo in place. When votesClean,
// members that only read the suite-shared matrix are skipped: their input did
// not change, so their memoized estimate is still exact.
func (s *Suite) refreshMemo(votesClean bool) {
	for i, m := range s.members {
		if votesClean {
			if mm, ok := m.(sharedMatrixMember); ok && mm.sharesMatrix() {
				continue
			}
		}
		if extra := s.extras[i]; extra != "" {
			if s.memo.Extra == nil {
				s.memo.Extra = make(map[string]float64, len(s.members))
			}
			s.memo.Extra[extra] = m.Estimate()
			continue
		}
		switch m.Name() {
		case NameNominal:
			s.memo.Nominal = m.Estimate()
		case NameVoting:
			s.memo.Voting = m.Estimate()
		case NameChao92:
			s.memo.Chao92 = m.Estimate()
		case NameVChao92:
			s.memo.VChao92 = m.Estimate()
		case NameSwitch:
			// One evaluation serves both the scalar and the full struct.
			s.memo.Switch = s.Switch.Estimate()
		}
	}
}

// EstimateAllUncached evaluates every member unconditionally, bypassing the
// version memo. It is the raw recompute path (and the baseline the read-path
// benchmarks compare the cache against).
func (s *Suite) EstimateAllUncached() Estimates {
	var e Estimates
	for i, m := range s.members {
		if extra := s.extras[i]; extra != "" {
			if e.Extra == nil {
				e.Extra = make(map[string]float64, len(s.members))
			}
			e.Extra[extra] = m.Estimate()
			continue
		}
		switch m.Name() {
		case NameNominal:
			e.Nominal = m.Estimate()
		case NameVoting:
			e.Voting = m.Estimate()
		case NameChao92:
			e.Chao92 = m.Estimate()
		case NameVChao92:
			e.VChao92 = m.Estimate()
		case NameSwitch:
			// One evaluation serves both the scalar and the full struct.
			e.Switch = s.Switch.Estimate()
		}
	}
	return e
}

// Reset clears the suite for the next permutation. The mutation version keeps
// advancing (a reset is a mutation), so memoized estimates from before the
// reset can never be served afterwards.
func (s *Suite) Reset() {
	s.version++
	s.voteVersion++
	s.memoValid = false
	s.Matrix.Reset()
	for _, m := range s.streaming {
		m.Reset()
	}
}
