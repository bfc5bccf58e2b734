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
// The aggregates take O(1) space per item and per worker, so a matrix's
// memory grows with its items and workers, not with the votes it ingests.
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

// workerSet tracks the distinct workers seen as a growable dense bitset:
// worker IDs are small dense integers in every supported source (simulator
// pools number workers 0..K−1, vote logs use row-local counters), so a
// bitset replaces the map the hot path previously touched on every vote.
// IDs outside the dense range — negative, or so large the bitset would
// balloon (possible only in hand-written logs) — fall back to a lazily
// allocated map, so correctness never depends on the dense assumption.
type workerSet struct {
	bits   []uint64
	count  int
	sparse map[int]struct{}
}

// workerSetMaxDense bounds the bitset to 1 MiB (2²³ worker IDs); beyond
// that the sparse map is cheaper than the zero-filled words.
const workerSetMaxDense = 1 << 23

// add records worker w, returning without allocating when w was seen.
func (s *workerSet) add(w int) {
	if w < 0 || w >= workerSetMaxDense {
		if s.sparse == nil {
			s.sparse = make(map[int]struct{})
		}
		if _, ok := s.sparse[w]; !ok {
			s.sparse[w] = struct{}{}
			s.count++
		}
		return
	}
	word := w >> 6
	for word >= len(s.bits) {
		s.bits = append(s.bits, 0)
	}
	if bit := uint64(1) << (w & 63); s.bits[word]&bit == 0 {
		s.bits[word] |= bit
		s.count++
	}
}

// len returns the number of distinct workers recorded.
func (s *workerSet) len() int { return s.count }

// reset clears the set, retaining the bitset's capacity.
func (s *workerSet) reset() {
	clear(s.bits)
	s.count = 0
	s.sparse = nil
}

// itemState is the per-row aggregate of the matrix.
type itemState struct {
	pos, neg int32
}

func (s itemState) total() int32 { return s.pos + s.neg }

// majorityDirty reports whether the strict majority of votes marks the item
// dirty: n⁺ − n/2 > 0 ⇔ n⁺ > n⁻ (ties are not a dirty majority).
func (s itemState) majorityDirty() bool { return s.pos > s.neg }

// Matrix is the incrementally built worker-response matrix.
//
// The zero value is not ready for use; construct with NewMatrix.
type Matrix struct {
	n     int
	items []itemState
	// history holds per-item vote sequences in arrival order, nil unless
	// the matrix was built WithHistory.
	history [][]Vote

	workers   workerSet
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
		n:     n,
		items: make([]itemState, n),
		fpos:  stats.NewRunningFreq(stats.Freq{0}),
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// NumItems returns N.
func (m *Matrix) NumItems() int { return m.n }

// NumWorkers returns the number of distinct workers seen so far (K).
func (m *Matrix) NumWorkers() int { return m.workers.len() }

// TotalVotes returns the number of non-∅ entries ingested.
func (m *Matrix) TotalVotes() int64 { return m.votes }

// PositiveVotes returns n⁺ = Σ_i n⁺_i.
func (m *Matrix) PositiveVotes() int64 { return m.posVotes }

// Add ingests one vote. It panics on an out-of-range item, mirroring slice
// semantics: vote streams are produced by this repository's own simulators
// and loaders, which validate input at the boundary.
func (m *Matrix) Add(v Vote) {
	st := &m.items[v.Item]
	wasNominal := st.pos > 0
	wasMajority := st.majorityDirty()

	if v.Label == Dirty {
		// Maintain the positive-vote fingerprint: the item moves from class
		// n⁺ to class n⁺+1.
		if st.pos > 0 {
			m.fpos.Promote(int(st.pos))
		} else {
			m.fpos.Add(1, 1)
		}
		st.pos++
		m.posVotes++
		if !wasNominal {
			m.cNominal++
		}
	} else {
		st.neg++
	}
	m.votes++
	m.workers.add(v.Worker)

	if isMajority := st.majorityDirty(); isMajority != wasMajority {
		if isMajority {
			m.cMajority++
		} else {
			m.cMajority--
		}
	}
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
func (m *Matrix) Pos(item int) int { return int(m.items[item].pos) }

// Neg returns n⁻_i.
func (m *Matrix) Neg(item int) int { return int(m.items[item].neg) }

// Seen returns the number of votes item i has received.
func (m *Matrix) Seen(item int) int { return int(m.items[item].total()) }

// MajorityDirty reports the current strict-majority consensus for item i.
func (m *Matrix) MajorityDirty(item int) bool { return m.items[item].majorityDirty() }

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

// MajorityVector materializes the current consensus vector V ∈ {0,1}^N of
// Problem 2 (true = dirty).
func (m *Matrix) MajorityVector() []bool {
	out := make([]bool, m.n)
	for i := range m.items {
		out[i] = m.items[i].majorityDirty()
	}
	return out
}

// Coverage returns the fraction of items with at least one vote.
func (m *Matrix) Coverage() float64 {
	if m.n == 0 {
		return 0
	}
	seen := 0
	for i := range m.items {
		if m.items[i].total() > 0 {
			seen++
		}
	}
	return float64(seen) / float64(m.n)
}

// Clone returns a deep, independent copy of the matrix. The clone shares no
// mutable state with the receiver, so session engines can snapshot a live
// matrix and keep ingesting into the original.
func (m *Matrix) Clone() *Matrix {
	out := &Matrix{
		n:         m.n,
		items:     append([]itemState(nil), m.items...),
		votes:     m.votes,
		posVotes:  m.posVotes,
		cNominal:  m.cNominal,
		cMajority: m.cMajority,
		fpos:      m.fpos.CloneRunning(),
	}
	if m.history != nil {
		out.history = make([][]Vote, len(m.history))
		for i, h := range m.history {
			if len(h) > 0 {
				out.history[i] = append([]Vote(nil), h...)
			}
		}
	}
	out.workers = m.workers.clone()
	return out
}

// clone returns an independent copy of the worker set.
func (s *workerSet) clone() workerSet {
	out := workerSet{
		bits:  append([]uint64(nil), s.bits...),
		count: s.count,
	}
	if s.sparse != nil {
		out.sparse = make(map[int]struct{}, len(s.sparse))
		for w := range s.sparse {
			out.sparse[w] = struct{}{}
		}
	}
	return out
}

// Reset clears the matrix back to all-unseen without reallocating.
func (m *Matrix) Reset() {
	for i := range m.items {
		m.items[i] = itemState{}
	}
	for i := range m.history {
		m.history[i] = m.history[i][:0]
	}
	m.workers.reset()
	m.votes, m.posVotes, m.cNominal, m.cMajority = 0, 0, 0, 0
	m.fpos.Reset()
}
