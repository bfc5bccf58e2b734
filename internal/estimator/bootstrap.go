package estimator

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"dqm/internal/stats"
	"dqm/internal/switchstat"
	"dqm/internal/votes"
	"dqm/internal/xrand"
)

// Bootstrap confidence intervals answer the paper's §6.3 question — "how
// much trust can an analyst place in our estimates?" — by resampling the
// item dimension of the observed data: items are the exchangeable units of
// the species-estimation model, so a nonparametric bootstrap over item rows
// propagates sampling variability into the estimate.
//
// The machinery is split into capture and compute so callers holding a lock
// can release it before the replicate loop: CaptureChao92 / CaptureBootstrap
// copy the minimal per-item state (positive counts; flattened switch
// ledgers) into a pooled state object, and state.Bootstrap runs the b
// replicates — serially or fanned over a bounded worker pool. Replicate i
// always draws from the child RNG stream SplitAt(i) of the caller's base
// RNG, so the interval is a pure function of (state, seed, b, level),
// identical at any worker count.

// CI is a two-sided percentile confidence interval around an estimate.
type CI struct {
	Lo, Hi float64
	// Level is the nominal confidence level, e.g. 0.95.
	Level float64
	// Replicates is the number of bootstrap resamples used.
	Replicates int
}

func percentileCI(samples []float64, level float64, reps int) CI {
	sort.Float64s(samples)
	alpha := (1 - level) / 2
	lo := samples[int(alpha*float64(len(samples)-1))]
	hi := samples[int((1-alpha)*float64(len(samples)-1))]
	return CI{Lo: lo, Hi: hi, Level: level, Replicates: reps}
}

// runReplicates evaluates f(rep, rng) for every rep in [0, b), where rng is
// the rep-indexed child of base. With workers ≤ 1 the loop is inline; above
// that, workers goroutines claim replicate indices from a shared counter.
// Each worker reuses one scratch RNG (reseeded per replicate), so the fan-out
// allocates O(workers), not O(b).
func runReplicates(b, workers int, base *xrand.RNG, f func(rep int, rng *xrand.RNG)) {
	if workers > b {
		workers = b
	}
	if workers <= 1 {
		rng := base.SplitAt(0)
		for rep := 0; rep < b; rep++ {
			rng.ReseedAt(base, uint64(rep))
			f(rep, rng)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			rng := base.SplitAt(0)
			for {
				rep := int(next.Add(1)) - 1
				if rep >= b {
					return
				}
				rng.ReseedAt(base, uint64(rep))
				f(rep, rng)
			}
		}()
	}
	wg.Wait()
}

// DefaultBootstrapWorkers is the worker-pool width a served interval uses:
// one per CPU, capped — replicate loops are compute-bound and wider pools
// only add scheduling noise.
func DefaultBootstrapWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	if w < 1 {
		w = 1
	}
	return w
}

// estsPool recycles the replicate-estimate slices across bootstrap calls.
var estsPool = sync.Pool{New: func() any { return new([]float64) }}

func getEsts(b int) *[]float64 {
	p := estsPool.Get().(*[]float64)
	if cap(*p) < b {
		*p = make([]float64, b)
	}
	*p = (*p)[:b]
	return p
}

// Chao92BootstrapState is the captured input of the Chao92 bootstrap: the
// per-item positive-vote counts. States are pooled; Release returns one.
type Chao92BootstrapState struct {
	pos []int
}

var chao92StatePool = sync.Pool{New: func() any { return new(Chao92BootstrapState) }}

// CaptureChao92 snapshots the matrix state the Chao92 bootstrap needs into a
// pooled state. The caller must serialize the capture with matrix mutations
// (it is O(n) reads); Bootstrap on the returned state needs no further access
// to the matrix.
func CaptureChao92(m *votes.Matrix) *Chao92BootstrapState {
	st := chao92StatePool.Get().(*Chao92BootstrapState)
	n := m.NumItems()
	if cap(st.pos) < n {
		st.pos = make([]int, n)
	}
	st.pos = st.pos[:n]
	for i := 0; i < n; i++ {
		st.pos[i] = m.Pos(i)
	}
	return st
}

// Release returns the state to the pool. The state must not be used after.
func (st *Chao92BootstrapState) Release() { chao92StatePool.Put(st) }

// Bootstrap computes the percentile CI from the captured state. Replicate i
// draws from rng.SplitAt(i), so the result is independent of the worker
// count; workers ≤ 1 runs the replicates inline. Each replicate
// accumulates the Chao92 sufficient statistic (c, f₁, pair sum, n) directly
// from the n item draws — no per-replicate fingerprint or count buffer.
func (st *Chao92BootstrapState) Bootstrap(b int, level float64, rng *xrand.RNG, workers int) (CI, error) {
	if err := checkBootstrapArgs(b, level); err != nil {
		return CI{}, err
	}
	n := len(st.pos)
	ests := getEsts(b)
	defer estsPool.Put(ests)
	runReplicates(b, workers, rng, func(rep int, rng *xrand.RNG) {
		var species, mass, pairSum, f1 int64
		for k := 0; k < n; k++ {
			c := st.pos[rng.IntN(n)]
			if c <= 0 {
				continue
			}
			species++
			mass += int64(c)
			pairSum += int64(c) * int64(c-1)
			if c == 1 {
				f1++
			}
		}
		in := stats.Chao92Stats{C: species, F1: f1, PairSum: pairSum, N: mass}
		(*ests)[rep] = stats.Chao92FromStats(in).Estimate
	})
	return percentileCI(*ests, level, b), nil
}

// SwitchBootstrapState is the captured input of the SWITCH bootstrap: every
// item's switch ledger flattened into one event slice with per-item offsets,
// the per-item majority bits, and the frozen trend branch. States are pooled.
type SwitchBootstrapState struct {
	n      int
	events []switchstat.SwitchEvent
	start  []int // len n+1; item i's events are events[start[i]:start[i+1]]
	maj    []bool
	trend  Trend
	nMode  NMode
	capPop bool
}

var switchStatePool = sync.Pool{New: func() any { return new(SwitchBootstrapState) }}

// CaptureBootstrap snapshots the estimator state the SWITCH bootstrap needs
// into a pooled state. The estimator must have been built with RetainLedgers
// (see SwitchConfig). The caller must serialize the capture with vote
// ingestion; Bootstrap on the returned state needs no further access to the
// estimator.
func (e *SwitchEstimator) CaptureBootstrap() (*SwitchBootstrapState, error) {
	tr := e.tracker
	if !tr.RetainsLedgers() {
		return nil, fmt.Errorf("estimator: bootstrap requires SwitchConfig.RetainLedgers")
	}
	n := tr.NumItems()
	st := switchStatePool.Get().(*SwitchBootstrapState)
	st.n = n
	if cap(st.start) < n+1 {
		st.start = make([]int, n+1)
	}
	st.start = st.start[:n+1]
	if cap(st.maj) < n {
		st.maj = make([]bool, n)
	}
	st.maj = st.maj[:n]
	st.events = st.events[:0]
	for i := 0; i < n; i++ {
		st.start[i] = len(st.events)
		st.events = append(st.events, tr.ItemLedger(i)...)
		st.maj[i] = tr.ItemMajorityDirty(i)
	}
	st.start[n] = len(st.events)
	st.trend = e.trend()
	st.nMode = e.cfg.NMode
	st.capPop = e.cfg.CapToPopulation
	return st, nil
}

// Release returns the state to the pool. The state must not be used after.
func (st *SwitchBootstrapState) Release() { switchStatePool.Put(st) }

// signAcc accumulates one sign's switch fingerprint statistics over a
// replicate: each ledger event of frequency j contributes one species of
// class j, exactly as Freq.Add(j, 1) would.
type signAcc struct {
	species, mass, pairSum, f1 int64
}

func (a *signAcc) add(freq int64) {
	a.species++
	a.mass += freq
	a.pairSum += freq * (freq - 1)
	if freq == 1 {
		a.f1++
	}
}

// Bootstrap computes the percentile CI from the captured state, with the
// same determinism and worker-pool contract as Chao92BootstrapState.
func (st *SwitchBootstrapState) Bootstrap(b int, level float64, rng *xrand.RNG, workers int) (CI, error) {
	if err := checkBootstrapArgs(b, level); err != nil {
		return CI{}, err
	}
	ests := getEsts(b)
	defer estsPool.Put(ests)
	runReplicates(b, workers, rng, func(rep int, rng *xrand.RNG) {
		(*ests)[rep] = st.replicate(rng)
	})
	return percentileCI(*ests, level, b), nil
}

// replicate draws one item resample and recomputes the trend-corrected SWITCH
// estimate from the flattened ledgers, accumulating sign statistics as
// scalars (no per-replicate fingerprints).
func (st *SwitchBootstrapState) replicate(rng *xrand.RNG) float64 {
	var (
		pos, neg   signAcc
		cPos, cNeg int64
		nSwitch    int64
		maj        int64
	)
	n := st.n
	for k := 0; k < n; k++ {
		i := rng.IntN(n)
		if st.maj[i] {
			maj++
		}
		lo, hi := st.start[i], st.start[i+1]
		if lo == hi {
			continue
		}
		hasPos, hasNeg := false, false
		for _, ev := range st.events[lo:hi] {
			freq := int64(ev.Freq)
			nSwitch += freq
			if ev.Positive {
				pos.add(freq)
				hasPos = true
			} else {
				neg.add(freq)
				hasNeg = true
			}
		}
		if hasPos {
			cPos++
		}
		if hasNeg {
			cNeg++
		}
	}
	xiPos := bootXi(st.nMode, cPos, pos, nSwitch)
	xiNeg := bootXi(st.nMode, cNeg, neg, nSwitch)
	var total float64
	switch st.trend {
	case TrendUp:
		total = float64(maj) + xiPos
	case TrendDown:
		total = float64(maj) - xiNeg
	default:
		total = float64(maj) + xiPos - xiNeg
	}
	if st.capPop {
		total = stats.Clamp(total, 0, float64(n))
	} else if total < 0 {
		total = 0
	}
	return total
}

// bootXi is the replicate-side ξ: the estimated remaining switches of one
// sign. The sign's observed species count equals its accumulated species
// (one per ledger event), so observed is read from the accumulator.
func bootXi(mode NMode, c int64, a signAcc, nSwitch int64) float64 {
	if c == 0 {
		return 0
	}
	n := nSwitch
	if mode == NModeSignMass {
		n = a.mass
	}
	d := stats.Chao92FromStats(stats.Chao92Stats{C: c, F1: a.f1, PairSum: a.pairSum, N: n}).Estimate
	observed := float64(a.species)
	if d < observed {
		d = observed
	}
	return math.Max(0, d-observed)
}

// Bootstrap replicate bounds. An interval needs at least MinReplicates.
// Every replicate costs O(N) compute, so MaxReplicates is the most a served
// interval may ask for: dqm-serve's ?replicates= and a gate policy's
// ci.replicates both stop there.
const (
	MinReplicates = 10
	MaxReplicates = 10000
)

// ValidateBootstrapArgs checks the replicate count and confidence level, so
// API layers can reject a bad CI request before capturing any state.
func ValidateBootstrapArgs(b int, level float64) error { return checkBootstrapArgs(b, level) }

func checkBootstrapArgs(b int, level float64) error {
	if b < MinReplicates {
		return fmt.Errorf("estimator: %d bootstrap replicates is too few (want ≥ %d)", b, MinReplicates)
	}
	if level <= 0 || level >= 1 {
		return fmt.Errorf("estimator: confidence level %v outside (0,1)", level)
	}
	return nil
}
