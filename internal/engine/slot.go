package engine

import (
	"math"
	"sync/atomic"

	"dqm/internal/estimator"
)

// publishWindow is how many versions past the newest one a reader asked for
// a session keeps publishing its estimates on every mutation. A session that
// nobody reads stops, and pays one atomic load per mutation for the check.
const publishWindow = 64

// slotReadTries bounds the copies of the slot a reader makes while they race
// a store, yielding its processor between them, before it waits for the
// writer on the session mutex instead.
const slotReadTries = 64

// estimateSlot is a seqlock over one estimator.Estimates, as twelve words,
// and the session version it was evaluated at. Its one writer holds the
// session mutex; a reader keeps a copy only when seq was even and unchanged
// across it. Every word is atomic, so a copy that races a store is detected,
// not a data race.
type estimateSlot struct {
	seq, version atomic.Uint64 // seq is odd while store rewrites the words
	words        [12]atomic.Uint64
}

// store publishes e as the estimates at version v. Call under the session
// mutex.
func (sl *estimateSlot) store(v uint64, e *estimator.Estimates) {
	seq := sl.seq.Load()
	sl.seq.Store(seq + 1)
	sl.version.Store(v)
	w := &sl.words
	w[0].Store(math.Float64bits(e.Nominal))
	w[1].Store(math.Float64bits(e.Voting))
	w[2].Store(math.Float64bits(e.Chao92))
	w[3].Store(math.Float64bits(e.VChao92))
	w[4].Store(math.Float64bits(e.Switch.Total))
	w[5].Store(math.Float64bits(e.Switch.Majority))
	w[6].Store(math.Float64bits(e.Switch.XiPos))
	w[7].Store(math.Float64bits(e.Switch.XiNeg))
	w[8].Store(math.Float64bits(e.Switch.DPos))
	w[9].Store(math.Float64bits(e.Switch.DNeg))
	w[10].Store(math.Float64bits(e.Switch.RemainingSwitches))
	w[11].Store(uint64(e.Switch.Trend))
	sl.seq.Store(seq + 2)
}

// load copies the slot into e and returns the version it holds. ok is false
// when the copy raced a store, and e is then not to be used.
func (sl *estimateSlot) load(e *estimator.Estimates) (v uint64, ok bool) {
	seq := sl.seq.Load()
	v = sl.version.Load()
	w := &sl.words
	e.Nominal = math.Float64frombits(w[0].Load())
	e.Voting = math.Float64frombits(w[1].Load())
	e.Chao92 = math.Float64frombits(w[2].Load())
	e.VChao92 = math.Float64frombits(w[3].Load())
	e.Switch.Total = math.Float64frombits(w[4].Load())
	e.Switch.Majority = math.Float64frombits(w[5].Load())
	e.Switch.XiPos = math.Float64frombits(w[6].Load())
	e.Switch.XiNeg = math.Float64frombits(w[7].Load())
	e.Switch.DPos = math.Float64frombits(w[8].Load())
	e.Switch.DNeg = math.Float64frombits(w[9].Load())
	e.Switch.RemainingSwitches = math.Float64frombits(w[10].Load())
	e.Switch.Trend = estimator.Trend(w[11].Load())
	return v, seq&1 == 0 && sl.seq.Load() == seq
}
