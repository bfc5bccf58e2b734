package estimator

import (
	"fmt"
	"sort"
	"sync"

	"dqm/internal/stats"
	"dqm/internal/votes"
)

// Estimator is one streaming error estimator: it ingests votes in task
// order, observes task boundaries, and reports a total-error estimate at any
// point of the stream. Implementations are not safe for concurrent use; the
// session engine serializes access per session.
type Estimator interface {
	// Name returns the canonical name the estimator was registered under.
	Name() string
	// Observe ingests one vote.
	Observe(v votes.Vote)
	// EndTask marks a task boundary (trend detectors operate on per-task
	// series; estimators without task state treat it as a no-op).
	EndTask()
	// Estimate returns the current total-error estimate.
	Estimate() float64
	// Reset clears all stream state for a fresh replay.
	Reset()
}

// Env is what a Factory gets to build an estimator instance.
type Env struct {
	// N is the population size.
	N int
	// Matrix is the shared response matrix when the estimator is built as a
	// suite member: the suite ingests every vote into it exactly once, before
	// any member observes the vote, so matrix-derived estimators must not
	// Observe into it again. Nil when the estimator is built standalone; it
	// then owns (and feeds) its own state.
	Matrix *votes.Matrix
	// Config carries the estimator parameters.
	Config SuiteConfig
}

// Factory builds one estimator instance for a session.
type Factory func(env Env) Estimator

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// Register makes a factory available under name. It panics on a duplicate or
// empty name; registration happens at init time, so a clash is a programmer
// error, not a runtime condition.
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("estimator: Register with empty name or nil factory")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("estimator: duplicate registration of %q", name))
	}
	registry[name] = f
}

// Lookup returns the factory registered under name.
func Lookup(name string) (Factory, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	f, ok := registry[name]
	return f, ok
}

// RegisteredNames returns every registered estimator name, sorted.
func RegisteredNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ValidateNames checks that every name has a registered factory, so API
// layers can reject a bad estimator selection before building a session.
func ValidateNames(names []string) error {
	for _, n := range names {
		if _, ok := Lookup(n); !ok {
			return fmt.Errorf("estimator: unknown estimator %q (registered: %v)", n, RegisteredNames())
		}
	}
	return nil
}

// New builds the named estimator via its registered factory.
func New(name string, env Env) (Estimator, error) {
	f, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("estimator: unknown estimator %q (registered: %v)", name, RegisteredNames())
	}
	return f(env), nil
}

func init() {
	Register(NameNominal, func(env Env) Estimator {
		return newMatrixMember(env, NameNominal, false, func(m *votes.Matrix, _ SuiteConfig) float64 {
			return Nominal(m)
		})
	})
	Register(NameVoting, func(env Env) Estimator {
		return newMatrixMember(env, NameVoting, false, func(m *votes.Matrix, _ SuiteConfig) float64 {
			return Voting(m)
		})
	})
	Register(NameChao92, func(env Env) Estimator {
		return newMatrixMember(env, NameChao92, true, func(m *votes.Matrix, _ SuiteConfig) float64 {
			return chao92(m, true)
		})
	})
	Register(NameVChao92, func(env Env) Estimator {
		return newMatrixMember(env, NameVChao92, true, func(m *votes.Matrix, cfg SuiteConfig) float64 {
			return VChao92(m, cfg.VChao92)
		})
	})
	Register(NameSwitch, func(env Env) Estimator {
		if env.Matrix != nil {
			return &switchMember{est: newSwitchOn(env.Matrix, env.Config.Switch)}
		}
		return &switchMember{est: NewSwitch(env.N, env.Config.Switch)}
	})
}

// matrixMember adapts a pure function over the response matrix to the
// Estimator interface. When built inside a suite it reads the suite's shared
// matrix and its Observe/Reset are no-ops (the suite feeds the matrix once
// for all members); standalone it owns and feeds a private matrix.
type matrixMember struct {
	name string
	m    *votes.Matrix
	owns bool
	// clamp applies the population cap to species estimates.
	clamp bool
	n     int
	cfg   SuiteConfig
	est   func(*votes.Matrix, SuiteConfig) float64
}

func newMatrixMember(env Env, name string, capEligible bool, est func(*votes.Matrix, SuiteConfig) float64) *matrixMember {
	x := &matrixMember{
		name:  name,
		m:     env.Matrix,
		clamp: capEligible && env.Config.CapToPopulation,
		n:     env.N,
		cfg:   env.Config,
		est:   est,
	}
	if x.m == nil {
		x.m = votes.NewMatrix(env.N)
		x.owns = true
	}
	return x
}

func (x *matrixMember) Name() string { return x.name }

func (x *matrixMember) Observe(v votes.Vote) {
	if x.owns {
		x.m.Add(v)
	}
}

func (x *matrixMember) EndTask() {}

func (x *matrixMember) Estimate() float64 {
	v := x.est(x.m, x.cfg)
	if x.clamp {
		return stats.Clamp(v, 0, float64(x.n))
	}
	return v
}

func (x *matrixMember) Reset() {
	if x.owns {
		x.m.Reset()
	}
}

// sharesMatrix reports whether the member reads a suite-owned matrix, in
// which case the suite skips it on the per-vote hot path.
func (x *matrixMember) sharesMatrix() bool { return !x.owns }

// sharedMatrixMember is the hot-path optimization hook: members whose
// Observe/EndTask/Reset are no-ops because the suite feeds their shared
// matrix are excluded from the suite's per-vote dispatch loop.
type sharedMatrixMember interface {
	sharesMatrix() bool
}

// switchMember adapts the streaming SWITCH estimator to the registry
// interface. Inside a suite its tracker reads the per-item vote counts of the
// shared matrix and keeps its switch state in the matrix's rows, so the suite
// still feeds it every vote, after the matrix; standalone its tracker owns
// its rows and counts votes itself.
type switchMember struct {
	est *SwitchEstimator
}

func (x *switchMember) Name() string         { return NameSwitch }
func (x *switchMember) Observe(v votes.Vote) { x.est.Observe(v) }
func (x *switchMember) EndTask()             { x.est.EndTask() }
func (x *switchMember) Estimate() float64    { return x.est.Estimate().Total }
func (x *switchMember) Reset()               { x.est.Reset() }
