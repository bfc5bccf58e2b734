// Package votes implements the worker-response matrix I of Problem 1: an
// N×K matrix with entries {1, 0, ∅} denoting dirty, clean and unseen. The
// matrix is ingested incrementally, one vote at a time, in task order; it
// maintains the aggregates every estimator in the paper consumes:
//
//   - n⁺_i, n⁻_i    per-item positive/negative vote counts
//   - c_nominal     #items marked dirty by at least one worker (§2.2.1)
//   - c_majority    #items whose strict majority is dirty (§2.2.2)
//   - n⁺            total positive votes (the n of the Chao92 error estimate)
//   - f-statistics  f_j = #items with exactly j positive votes (§3.2)
//
// The aggregates take O(1) space per item, so a matrix's memory grows with
// its items, not with the votes it ingests. Distinct workers are counted
// outside the matrix, by a WorkerSet.
// The per-item vote sequences, which only worker-level inference reads
// (package quality's Dawid–Skene EM), are retained only on request: see
// WithHistory.
package votes

import (
	"fmt"

	"dqm/internal/stats"
)

// Label is a single worker judgment about one item.
type Label uint8

const (
	// Clean is a vote that the item is not erroneous (matrix entry 0).
	Clean Label = iota
	// Dirty is a vote that the item is erroneous (matrix entry 1).
	Dirty
)

// String implements fmt.Stringer.
func (l Label) String() string {
	switch l {
	case Clean:
		return "clean"
	case Dirty:
		return "dirty"
	default:
		return fmt.Sprintf("Label(%d)", uint8(l))
	}
}

// Vote is one observed matrix entry: worker w judged item i.
type Vote struct {
	Item   int
	Worker int
	Label  Label
}

// Matrix is the incrementally built worker-response matrix.
//
// The zero value is not ready for use; construct with NewMatrix.
type Matrix struct {
	n int
	// rows holds each item's counts, and the switch state of a tracker
	// built on the matrix (switchstat.NewTrackerOn).
	rows Rows
	// history holds per-item vote sequences in arrival order, nil unless
	// the matrix was built WithHistory.
	history [][]Vote

	votes     int64
	posVotes  int64
	cNominal  int64
	cMajority int64
	// fpos tracks f_j over positive-vote counts incrementally, together with
	// its running aggregates (f₁, pair sum), so the Chao92 estimators read
	// their sufficient statistic in O(1) instead of walking the fingerprint.
	fpos stats.RunningFreq
}

// Option configures a Matrix.
type Option func(*Matrix)

// WithHistory retains every item's vote sequence, enabling History at a cost
// of one Vote per ingested vote. Aggregates (counts, fingerprints, majority)
// are exact either way.
func WithHistory() Option {
	return func(m *Matrix) { m.history = make([][]Vote, m.n) }
}

// NewMatrix creates a matrix over n items, all initially unseen.
func NewMatrix(n int, opts ...Option) *Matrix {
	if n < 0 {
		panic(fmt.Sprintf("votes: negative item count %d", n))
	}
	m := &Matrix{
		n:    n,
		rows: *NewRows(n),
		fpos: stats.NewRunningFreq(stats.Freq{0}),
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// NumItems returns N.
func (m *Matrix) NumItems() int { return m.n }

// TotalVotes returns the number of non-∅ entries ingested.
func (m *Matrix) TotalVotes() int64 { return m.votes }

// PositiveVotes returns n⁺ = Σ_i n⁺_i.
func (m *Matrix) PositiveVotes() int64 { return m.posVotes }

// Add ingests one vote. It panics on an out-of-range item, mirroring slice
// semantics: vote streams are produced by this repository's own simulators
// and loaders, which validate input at the boundary.
func (m *Matrix) Add(v Vote) {
	pos, neg := m.rows.Add(v.Item, v.Label) // the counts including this vote
	if v.Label == Dirty {
		// Maintain the positive-vote fingerprint: the item moves from class
		// n⁺−1 to class n⁺.
		if pos > 1 {
			m.fpos.Promote(pos - 1)
		} else {
			m.fpos.Add(1, 1)
			m.cNominal++
		}
		m.posVotes++
		// One vote moves the strict majority only across a tie: a dirty vote
		// makes it dirty when it leaves n⁺ = n⁻ + 1, a clean vote unmakes it
		// when it leaves n⁺ = n⁻.
		if pos == neg+1 {
			m.cMajority++
		}
	} else if pos == neg {
		m.cMajority--
	}
	m.votes++
	if m.history != nil {
		m.history[v.Item] = append(m.history[v.Item], v)
	}
}

// AddAll ingests votes in order.
func (m *Matrix) AddAll(vs []Vote) {
	for _, v := range vs {
		m.Add(v)
	}
}

// Pos returns n⁺_i.
func (m *Matrix) Pos(item int) int {
	pos, _ := m.rows.Get(item)
	return pos
}

// Neg returns n⁻_i.
func (m *Matrix) Neg(item int) int {
	_, neg := m.rows.Get(item)
	return neg
}

// Seen returns the number of votes item i has received.
func (m *Matrix) Seen(item int) int {
	pos, neg := m.rows.Get(item)
	return pos + neg
}

// MajorityDirty reports the current strict-majority consensus for item i:
// n⁺ − n/2 > 0 ⇔ n⁺ > n⁻ (ties are not a dirty majority).
func (m *Matrix) MajorityDirty(item int) bool {
	pos, neg := m.rows.Get(item)
	return pos > neg
}

// Rows returns every item's row. Add and Reset update the rows in place, and
// a read through the returned pointer sees a widening at once. A switch
// tracker fed the same vote stream reads the counts there and keeps its
// switch state in the same rows instead of an array of its own; nothing else
// may modify them.
func (m *Matrix) Rows() *Rows { return &m.rows }

// Nominal returns c_nominal = Σ_i 1[n⁺_i > 0] (§2.2.1).
func (m *Matrix) Nominal() int64 { return m.cNominal }

// Majority returns c_majority = Σ_i 1[n⁺_i − n_i/2 > 0] (§2.2.2).
func (m *Matrix) Majority() int64 { return m.cMajority }

// DirtyFingerprint returns the f-statistics over positive votes: f_j is the
// number of items marked dirty by exactly j workers. The returned slice is a
// copy and safe to retain.
func (m *Matrix) DirtyFingerprint() stats.Freq { return m.fpos.Clone() }

// DirtyFingerprintView returns the same f-statistics without copying. The
// returned slice aliases internal storage: it must not be modified and is
// invalidated by the next Add or Reset. The estimator hot paths read it in
// place to keep per-checkpoint evaluation allocation-free.
func (m *Matrix) DirtyFingerprintView() stats.Freq { return m.fpos.View() }

// DirtyStats returns the Chao92 sufficient statistic of the positive-vote
// fingerprint — f₁ and Σ j(j−1)f_j — in O(1) from the running aggregates.
func (m *Matrix) DirtyStats() (f1, pairSum int64) {
	return m.fpos.Singletons(), m.fpos.PairSum()
}

// DirtyShifted returns the aggregate statistics of the positive-vote
// fingerprint shifted by s classes (the vChao92 device) in O(s).
func (m *Matrix) DirtyShifted(s int) stats.ShiftedStats { return m.fpos.Shifted(s) }

// History returns the vote sequence of item i in arrival order. The returned
// slice aliases internal storage and must not be modified. It returns nil
// unless the matrix was built WithHistory.
func (m *Matrix) History(item int) []Vote {
	if m.history == nil {
		return nil
	}
	return m.history[item]
}

// RetainsHistory reports whether the matrix was built WithHistory.
func (m *Matrix) RetainsHistory() bool { return m.history != nil }

// Reset clears the matrix back to all-unseen without reallocating.
func (m *Matrix) Reset() {
	m.rows.Reset()
	for i := range m.history {
		m.history[i] = m.history[i][:0]
	}
	m.votes, m.posVotes, m.cNominal, m.cMajority = 0, 0, 0, 0
	m.fpos.Reset()
}
