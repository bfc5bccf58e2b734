// Package estimator implements every data-quality estimator evaluated in the
// paper:
//
//	NOMINAL   — #items marked dirty by ≥1 worker (descriptive, §2.2.1)
//	VOTING    — #items with a dirty strict majority (descriptive, §2.2.2)
//	EXTRAPOL  — error-rate extrapolation from a perfectly clean sample (§2.2.3)
//	Chao92    — species estimation over positive votes (§3.2)
//	vChao92   — shifted-fingerprint variant robust to false positives (§3.3)
//	SWITCH    — remaining-consensus-switch estimation with trend-dynamic
//	            correction of the majority vote (§4, the paper's contribution)
//
// Descriptive estimators are stateless functions over the response matrix.
// SWITCH is a streaming estimator: feed it votes in task order, call EndTask
// at task boundaries (the trend detector operates on the per-task majority
// series), and read Estimate at any point.
package estimator

import (
	"fmt"
	"math"

	"dqm/internal/stats"
	"dqm/internal/switchstat"
	"dqm/internal/votes"
)

// Nominal returns c_nominal(I) (§2.2.1).
func Nominal(m *votes.Matrix) float64 { return float64(m.Nominal()) }

// Voting returns c_majority(I) (§2.2.2).
func Voting(m *votes.Matrix) float64 { return float64(m.Majority()) }

// Extrapolate implements the predictive baseline of §2.2.3: if a perfectly
// clean sample of sampleSize items (out of population) contained errsFound
// errors, the whole dataset is estimated to contain errsFound/s errors,
// where s = sampleSize/population.
func Extrapolate(errsFound, sampleSize, population int) float64 {
	if sampleSize <= 0 || population <= 0 {
		return 0
	}
	return float64(errsFound) * float64(population) / float64(sampleSize)
}

// ExtrapolateRemaining returns the remaining-error form
// (1/s)·err_s − err_s used in the paper's introduction of the baseline.
func ExtrapolateRemaining(errsFound, sampleSize, population int) float64 {
	return Extrapolate(errsFound, sampleSize, population) - float64(errsFound)
}

// Chao92Option configures the species estimators.
type Chao92Option func(*chao92cfg)

type chao92cfg struct {
	skew bool
}

// WithoutSkewCorrection drops the f₁·γ̂²/Ĉ term, yielding D̂_noskew
// (Equation 3).
func WithoutSkewCorrection() Chao92Option {
	return func(c *chao92cfg) { c.skew = false }
}

// Chao92 applies the Chao92 estimator (Equation 4) to the response matrix:
// c = c_nominal, f = the positive-vote fingerprint, n = n⁺. It estimates the
// TOTAL number of distinct errors; subtract Nominal for the remaining count.
func Chao92(m *votes.Matrix, opts ...Chao92Option) float64 {
	cfg := chao92cfg{skew: true}
	for _, o := range opts {
		o(&cfg)
	}
	return chao92(m, cfg.skew)
}

// chao92 is the option-free core; the suite member calls it directly so the
// read path stays allocation-free (the variadic form heap-allocates its cfg).
func chao92(m *votes.Matrix, skew bool) float64 {
	// The matrix maintains the sufficient statistic (f₁, pair sum)
	// incrementally, so the estimate is O(1) — no fingerprint walk.
	f1, pairSum := m.DirtyStats()
	in := stats.Chao92Stats{C: m.Nominal(), F1: f1, PairSum: pairSum, N: m.PositiveVotes()}
	if skew {
		return stats.Chao92FromStats(in).Estimate
	}
	return stats.Chao92NoSkewFromStats(in).Estimate
}

// VChao92Config parameterizes the shifted estimator of §3.3.
type VChao92Config struct {
	// Shift s treats f_{1+s} as f₁ and so on; the paper evaluates s = 1
	// (V-CHAO in the figures). Shift 0 degrades to Chao92 with c_majority.
	Shift int
	// MassAdjust selects the adjustment of n for the dropped classes.
	// false (paper-literal): n^{+,s} = n⁺ − Σ_{i≤s} f_i.
	// true (mass-preserving): n^{+,s} = n⁺ − Σ_{i≤s} i·f_i.
	MassAdjust bool
}

// VChao92 applies the vChao92 estimator (Equation 6): majority consensus as
// c, fingerprint shifted by cfg.Shift, and n adjusted for the dropped
// classes.
func VChao92(m *votes.Matrix, cfg VChao92Config) float64 {
	if cfg.Shift < 0 {
		panic(fmt.Sprintf("estimator: negative vChao92 shift %d", cfg.Shift))
	}
	// The shifted-fingerprint statistics come from closed forms over the
	// running aggregates (O(shift), no materialized shifted Freq).
	sh := m.DirtyShifted(cfg.Shift)
	n := m.PositiveVotes()
	if cfg.MassAdjust {
		n -= sh.DroppedMass
	} else {
		n -= sh.DroppedCount
	}
	if n < 0 {
		n = 0
	}
	in := stats.Chao92Stats{C: m.Majority(), F1: sh.F1, PairSum: sh.PairSum, N: n}
	return stats.Chao92FromStats(in).Estimate
}

// Trend is the direction of the majority-consensus series, the signal the
// SWITCH estimator uses to pick between ξ⁺ and ξ⁻ (§4.3).
type Trend int

const (
	// TrendFlat means the majority count is not moving; SWITCH applies the
	// symmetric correction majority + ξ⁺ − ξ⁻.
	TrendFlat Trend = iota
	// TrendUp means the majority count is growing (false negatives being
	// corrected); SWITCH applies majority + ξ⁺.
	TrendUp
	// TrendDown means the majority count is shrinking (false positives being
	// corrected); SWITCH applies majority − ξ⁻.
	TrendDown
)

// String implements fmt.Stringer.
func (t Trend) String() string {
	switch t {
	case TrendFlat:
		return "flat"
	case TrendUp:
		return "up"
	case TrendDown:
		return "down"
	default:
		return fmt.Sprintf("Trend(%d)", int(t))
	}
}

// NMode selects the observation count n used in the sign-specific switch
// estimates.
type NMode int

const (
	// NModeGlobal uses n_switch (all votes minus pre-first-switch no-ops)
	// for both signs — the paper's "simply count all votes as n"
	// modification. This is the default.
	NModeGlobal NMode = iota
	// NModeSignMass uses the observation mass of the sign's own switch
	// ledger (Σ j·f′_j), the "sum of the frequencies" definition the paper
	// reports as overestimating. Retained for the ablation bench.
	NModeSignMass
)

// String implements fmt.Stringer.
func (m NMode) String() string {
	switch m {
	case NModeGlobal:
		return "global"
	case NModeSignMass:
		return "sign-mass"
	default:
		return fmt.Sprintf("NMode(%d)", int(m))
	}
}

// SwitchConfig parameterizes the SWITCH estimator.
type SwitchConfig struct {
	// Policy is the switch-counting rule (default Equation-7 tie-flip).
	Policy switchstat.Policy
	// NMode selects n for sign-specific estimation (default NModeGlobal).
	NMode NMode
	// TrendWindow is the number of past tasks the trend detector looks back,
	// capped at the tasks observed so far. 0 selects the adaptive default
	// max(12, ⌊observedTasks/3⌋). Before 4 tasks no trend is detected.
	TrendWindow int
	// CapToPopulation clamps estimates into [observed, N] when true. The
	// candidate-set experiments know N, so the paper's plotted estimates
	// never exceed it.
	CapToPopulation bool
	// RetainLedgers keeps per-item switch event lists, enabling
	// BootstrapSwitch confidence intervals at O(switches) memory.
	RetainLedgers bool
}

// SwitchEstimate is the full output of the SWITCH estimator at one point of
// the vote stream.
type SwitchEstimate struct {
	// Total is the trend-corrected total-error estimate of §4.3:
	// majority + ξ⁺ (trend up), majority − ξ⁻ (trend down) or
	// majority + ξ⁺ − ξ⁻ (flat).
	Total float64
	// Majority is the VOTING baseline at this point.
	Majority float64
	// XiPos and XiNeg are the estimated REMAINING positive and negative
	// switches (ξ⁺, ξ⁻ = D̂ − observed, floored at 0).
	XiPos, XiNeg float64
	// DPos and DNeg are the estimated TOTAL positive/negative switches.
	DPos, DNeg float64
	// RemainingSwitches is ξ = D̂_switch − switch(I) over both signs
	// (the Problem 2 answer).
	RemainingSwitches float64
	// Trend is the detected direction of the majority series.
	Trend Trend
}

// SwitchEstimator is the streaming implementation of the paper's SWITCH
// technique. It is not safe for concurrent use.
type SwitchEstimator struct {
	cfg     SwitchConfig
	tracker *switchstat.Tracker
	n       int
	// majPrefix[i] is the sum of the majority counts recorded at the first
	// i EndTask calls (len tasks+1 once a task ended), so window means in
	// the trend detector are O(1) instead of O(window).
	majPrefix []float64
	tasks     int
	// lastTrend makes the branch decision sticky: an inconclusive window
	// keeps the previously detected direction instead of flapping between
	// the ξ⁺ and ξ⁻ corrections (§4.3 commits to one side per dataset once
	// the majority trend is established).
	lastTrend Trend
}

// NewSwitch creates a standalone SWITCH estimator over n items.
func NewSwitch(n int, cfg SwitchConfig) *SwitchEstimator {
	return &SwitchEstimator{cfg: cfg, tracker: switchstat.NewTracker(n, cfg.trackerOptions()...), n: n}
}

// newSwitchOn creates a SWITCH estimator over m's items whose tracker shares
// m's rows: the suite member, fed after the suite matrix.
func newSwitchOn(m *votes.Matrix, cfg SwitchConfig) *SwitchEstimator {
	return &SwitchEstimator{cfg: cfg, tracker: switchstat.NewTrackerOn(m, cfg.trackerOptions()...), n: m.NumItems()}
}

func (cfg SwitchConfig) trackerOptions() []switchstat.Option {
	opts := []switchstat.Option{switchstat.WithPolicy(cfg.Policy)}
	if cfg.RetainLedgers {
		opts = append(opts, switchstat.WithItemLedgers())
	}
	return opts
}

// Observe ingests one vote.
func (e *SwitchEstimator) Observe(v votes.Vote) { e.tracker.AddVote(v) }

// EndTask marks a task boundary: the current majority count is appended to
// the trend series and the sticky trend state advances. Updating here (not
// in Estimate) makes the detected trend a function of the vote stream alone,
// independent of when estimates are read.
func (e *SwitchEstimator) EndTask() {
	e.tasks++
	maj := e.tracker.Majority()
	if len(e.majPrefix) == 0 {
		e.majPrefix = append(e.majPrefix, 0)
	}
	e.majPrefix = append(e.majPrefix, e.majPrefix[len(e.majPrefix)-1]+float64(maj))
	e.trend()
}

// Tasks returns the number of completed tasks.
func (e *SwitchEstimator) Tasks() int { return e.tasks }

// Tracker exposes the underlying switch statistics (read-only use).
func (e *SwitchEstimator) Tracker() *switchstat.Tracker { return e.tracker }

// trend inspects the majority series over the configured window: the mean
// of the most recent half-window is compared against the mean of the half
// before it. Differences below half an item are inconclusive and keep the
// previous direction.
func (e *SwitchEstimator) trend() Trend {
	t := e.tasks
	if t < 4 {
		return e.lastTrend
	}
	w := e.cfg.TrendWindow
	if w <= 0 {
		// A wide adaptive window captures the macro trend of the majority
		// series rather than its task-to-task noise.
		w = t / 3
		if w < 12 {
			w = 12
		}
	}
	if w > t {
		w = t
	}
	half := w / 2
	sum := func(from, to int) float64 { return e.majPrefix[to] - e.majPrefix[from] }
	recent := sum(t-half, t) / float64(half)
	older := sum(t-2*half, t-half) / float64(half)
	diff := recent - older
	// The tolerance scales with the majority level so large populations
	// (product: majority ≈ 500) are not oversensitive to ±1-item noise.
	tol := 0.75
	if lvl := 0.02 * recent; lvl > tol {
		tol = lvl
	}
	switch {
	case diff > tol:
		e.lastTrend = TrendUp
	case diff < -tol:
		e.lastTrend = TrendDown
	}
	return e.lastTrend
}

func (e *SwitchEstimator) signEstimate(c int64, f switchstat.FingerprintStats, observed int64) float64 {
	if c == 0 {
		return 0
	}
	var n int64
	switch e.cfg.NMode {
	case NModeSignMass:
		n = f.Mass
	default:
		n = e.tracker.NSwitch()
	}
	d := stats.Chao92FromStats(stats.Chao92Stats{C: c, F1: f.F1, PairSum: f.PairSum, N: n}).Estimate
	if d < float64(observed) {
		// A species estimate below the observed count is vacuous; the
		// estimator never predicts fewer species than seen.
		d = float64(observed)
	}
	return d
}

// Estimate computes the SWITCH outputs at the current point of the stream.
// The tracker maintains per-sign running aggregates, and the merged-sign
// statistic is their componentwise sum, so the whole estimate is O(1).
func (e *SwitchEstimator) Estimate() SwitchEstimate {
	tr := e.tracker
	maj := float64(tr.Majority())

	dPos := e.signEstimate(tr.CSwitchPositive(), tr.PositiveStats(), tr.PositiveSwitches())
	dNeg := e.signEstimate(tr.CSwitchNegative(), tr.NegativeStats(), tr.NegativeSwitches())
	xiPos := math.Max(0, dPos-float64(tr.PositiveSwitches()))
	xiNeg := math.Max(0, dNeg-float64(tr.NegativeSwitches()))

	dAll := e.signEstimate(tr.CSwitch(), tr.MergedStats(), tr.Switches())
	xiAll := math.Max(0, dAll-float64(tr.Switches()))

	trend := e.trend()
	var total float64
	switch trend {
	case TrendUp:
		total = maj + xiPos
	case TrendDown:
		total = maj - xiNeg
	default:
		total = maj + xiPos - xiNeg
	}
	if e.cfg.CapToPopulation {
		total = stats.Clamp(total, 0, float64(e.n))
	} else if total < 0 {
		total = 0
	}
	return SwitchEstimate{
		Total:             total,
		Majority:          maj,
		XiPos:             xiPos,
		XiNeg:             xiNeg,
		DPos:              dPos,
		DNeg:              dNeg,
		RemainingSwitches: xiAll,
		Trend:             trend,
	}
}

// Reset clears the estimator for a fresh permutation replay.
func (e *SwitchEstimator) Reset() {
	e.tracker.Reset()
	e.majPrefix = e.majPrefix[:0]
	e.tasks = 0
	e.lastTrend = TrendFlat
}
