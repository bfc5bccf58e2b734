package estimator

import (
	"fmt"
	"slices"

	"dqm/internal/stats"
	"dqm/internal/votes"
)

// Suite evaluates the paper's five estimators, or a selection of them, over a
// single shared response matrix, avoiding one matrix copy per estimator. It
// is the unit the experiment harness advances task by task and the session
// engine wraps per dataset session.
type Suite struct {
	// Matrix is the shared response matrix NOMINAL, VOTING, CHAO92 and V-CHAO
	// read.
	Matrix *votes.Matrix
	// Switch is the streaming SWITCH estimator, nil when NameSwitch is not
	// selected. Its tracker reads the per-item vote counts of Matrix and keeps
	// its switch state in the matrix rows, so the suite feeds it every vote
	// after the matrix. Exposed for consumers that need the full
	// SwitchEstimate or the bootstrap CI machinery.
	Switch *SwitchEstimator

	// names is the selection as given, repetitions included; selected has the
	// bit of every selected estimator set (see standardEstimates). A name
	// listed twice sets its bit once, so it is built and fed once.
	names    []string
	selected uint8

	cfg SuiteConfig
	n   int
}

// SuiteConfig configures a Suite.
type SuiteConfig struct {
	// Estimators selects the estimators by name. Nil selects StandardNames()
	// (every paper estimator). NewSuite panics on an unknown name; validate
	// user-supplied selections first with ValidateNames.
	Estimators []string
	// VChao92 parameterizes the V-CHAO estimator (default shift 1, the paper's
	// setting).
	VChao92 VChao92Config
	// Switch parameterizes the SWITCH estimator.
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

// NewSuite creates a suite over n items. It panics on an unknown estimator
// name (a programmer error; API layers validate selections with
// ValidateNames before building sessions). A name listed more than once is
// built once, and Names keeps every listing.
func NewSuite(n int, cfg SuiteConfig) *Suite {
	cfg = cfg.normalize()
	s := &Suite{
		Matrix: votes.NewMatrix(n),
		names:  slices.Clone(cfg.Estimators),
		cfg:    cfg,
		n:      n,
	}
	for _, name := range cfg.Estimators {
		bit, ok := selectionBit(name)
		if !ok {
			panic(fmt.Sprintf("estimator: NewSuite: %v", unknownName(name)))
		}
		s.selected |= bit
	}
	if s.selected&selSwitch != 0 {
		s.Switch = newSwitchOn(s.Matrix, cfg.Switch)
	}
	return s
}

// Names returns the selected estimator names as given to NewSuite.
func (s *Suite) Names() []string { return slices.Clone(s.names) }

// Config returns the (normalized) configuration the suite was built with.
func (s *Suite) Config() SuiteConfig { return s.cfg }

// NumItems returns the population size N.
func (s *Suite) NumItems() int { return s.n }

// Observe ingests one vote into the shared matrix and then the SWITCH
// tracker, which reads the vote counts the matrix has just updated.
func (s *Suite) Observe(v votes.Vote) {
	s.Matrix.Add(v)
	if s.Switch != nil {
		s.Switch.Observe(v)
	}
}

// ObserveTask ingests a whole task's votes and marks the task boundary.
func (s *Suite) ObserveTask(task []votes.Vote) {
	for _, v := range task {
		s.Observe(v)
	}
	s.EndTask()
}

// EndTask marks a task boundary for the SWITCH trend detector.
func (s *Suite) EndTask() {
	if s.Switch != nil {
		s.Switch.EndTask()
	}
}

// Estimates is a snapshot of every estimator's total-error estimate. It is a
// fixed-size value: a copy shares nothing with the original.
type Estimates struct {
	Nominal float64
	Voting  float64
	Chao92  float64
	VChao92 float64
	Switch  SwitchEstimate
}

// ByName returns the named estimate, matching the figure labels, or 0 for a
// name that is not an estimator. Resolution goes through the shared name
// table of names.go.
func (e Estimates) ByName(name string) float64 {
	for _, se := range standardEstimates {
		if se.name == name {
			return se.get(e)
		}
	}
	return 0
}

// EstimateAll evaluates every selected estimator at the current stream
// position. Every estimate is a closed form over running counts, so a call
// costs O(1) whatever the stream length. Estimators not selected leave their
// zero value in the snapshot.
func (s *Suite) EstimateAll() Estimates {
	var e Estimates
	m := s.Matrix
	if s.selected&selNominal != 0 {
		e.Nominal = Nominal(m)
	}
	if s.selected&selVoting != 0 {
		e.Voting = Voting(m)
	}
	if s.selected&selChao92 != 0 {
		e.Chao92 = s.capped(chao92(m, true))
	}
	if s.selected&selVChao92 != 0 {
		e.VChao92 = s.capped(VChao92(m, s.cfg.VChao92))
	}
	if s.Switch != nil {
		e.Switch = s.Switch.Estimate()
	}
	return e
}

// capped applies the population cap to a species estimate.
func (s *Suite) capped(v float64) float64 {
	if s.cfg.CapToPopulation {
		return stats.Clamp(v, 0, float64(s.n))
	}
	return v
}

// Reset clears the suite for the next permutation.
func (s *Suite) Reset() {
	s.Matrix.Reset()
	if s.Switch != nil {
		s.Switch.Reset()
	}
}
