// Package experiment reproduces the paper's evaluation: each figure of
// Section 6 has a driver that assembles the population, the simulated crowd
// and the estimator suite, replays the task stream over r random
// permutations (the paper's averaging protocol), and emits the same series
// the figure plots.
package experiment

import (
	"runtime"
	"sync"

	"dqm/internal/crowd"
	"dqm/internal/dataset"
	"dqm/internal/estimator"
	"dqm/internal/stats"
	"dqm/internal/votes"
	"dqm/internal/xrand"
)

// Extra series names produced by the runner beyond the estimator labels.
const (
	SeriesXiPos     = "XI_POS"     // estimated remaining positive switches ξ⁺
	SeriesXiNeg     = "XI_NEG"     // estimated remaining negative switches ξ⁻
	SeriesNeededPos = "NEEDED_POS" // ground-truth positive switches still needed
	SeriesNeededNeg = "NEEDED_NEG" // ground-truth negative switches still needed
)

// RunConfig describes one estimation run over a fixed set of collected
// tasks.
type RunConfig struct {
	// Population supplies N and the ground truth.
	Population *dataset.Population
	// Tasks are the collected worker responses; permutations reorder them.
	Tasks []crowd.Task
	// Checkpoints are the task counts at which estimates are recorded; they
	// must be ascending. Nil selects an even grid of ~50 points.
	Checkpoints []int
	// Permutations is r; the paper uses 10. 0 selects 10.
	Permutations int
	// Seed drives the permutation shuffles.
	Seed uint64
	// Suite configures the estimators.
	Suite estimator.SuiteConfig
	// TrackNeeded enables the ground-truth needed-switch series (used by the
	// b/c panels of Figures 3–5); it costs O(N) per checkpoint.
	TrackNeeded bool
	// Parallelism bounds the number of goroutines replaying permutations
	// concurrently. 0 selects GOMAXPROCS; 1 replays inline on the caller.
	// Results are bit-identical for every setting: each permutation owns a
	// pre-split RNG and a pooled suite, so the schedule cannot leak into the
	// estimates.
	Parallelism int
}

func (c *RunConfig) setDefaults() {
	if c.Permutations == 0 {
		c.Permutations = 10
	}
	if c.Checkpoints == nil {
		c.Checkpoints = EvenCheckpoints(len(c.Tasks), 50)
	}
}

// EvenCheckpoints returns ~points ascending task counts ending at total.
func EvenCheckpoints(total, points int) []int {
	if total <= 0 {
		return nil
	}
	if points <= 0 || points > total {
		points = total
	}
	out := make([]int, 0, points)
	for i := 1; i <= points; i++ {
		cp := i * total / points
		if len(out) == 0 || cp > out[len(out)-1] {
			out = append(out, cp)
		}
	}
	return out
}

// RunResult aggregates the per-checkpoint estimates over all permutations.
type RunResult struct {
	// X holds the checkpoint task counts.
	X []float64
	// Mean and Std map series name → per-checkpoint aggregate over the r
	// permutations.
	Mean map[string][]float64
	Std  map[string][]float64
	// Truth is |R_dirty|.
	Truth float64
	// FinalEstimates holds, per series, the r estimates at the last
	// checkpoint (the inputs to SRMSE).
	FinalEstimates map[string][]float64
}

// estimatorSeries lists the estimator-valued series in canonical order; it
// comes from the shared name table of package estimator, so a new registered
// standard estimator flows into the runner without touching this file.
var estimatorSeries = estimator.StandardNames()

// runSeries lists the series the runner always records: every standard
// estimator plus the switch-decomposition extras.
var runSeries = append(append([]string(nil), estimatorSeries...), SeriesXiPos, SeriesXiNeg)

// replayState is the per-worker scratch of the parallel replay engine: one
// suite plus the permutation and vote buffers it replays into. States are
// pooled so a Run spins up at most Parallelism of them regardless of r.
type replayState struct {
	suite *estimator.Suite
	order []int
	votes []votes.Vote
}

func newReplayState(n, tasks int, cfg estimator.SuiteConfig) *replayState {
	return &replayState{
		suite: estimator.NewSuite(n, cfg),
		order: make([]int, tasks),
	}
}

// replayPerm replays one permutation of the task stream through the state's
// suite, writing each checkpoint row into rows[series][ncp·p+checkpoint].
// Rows of distinct permutations are disjoint, so no synchronization is
// needed to merge them.
func (st *replayState) replayPerm(cfg *RunConfig, p, ncp int, permRNG *xrand.RNG, rows map[string][]float64) {
	st.suite.Reset()
	order := st.order
	for i := range order {
		order[i] = i
	}
	permRNG.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	base := p * ncp
	next := 0
	for ti, oi := range order {
		st.votes = cfg.Tasks[oi].AppendVotes(st.votes[:0])
		st.suite.ObserveTask(st.votes)
		if next < ncp && ti+1 == cfg.Checkpoints[next] {
			est := st.suite.EstimateAll()
			at := base + next
			for _, name := range estimatorSeries {
				rows[name][at] = est.ByName(name)
			}
			rows[SeriesXiPos][at] = est.Switch.XiPos
			rows[SeriesXiNeg][at] = est.Switch.XiNeg
			if cfg.TrackNeeded {
				np, nn := neededSwitches(st.suite.Matrix, cfg.Population.Truth)
				rows[SeriesNeededPos][at] = float64(np)
				rows[SeriesNeededNeg][at] = float64(nn)
			}
			next++
		}
	}
}

// Run replays the tasks over r permutations and aggregates estimates.
//
// Permutations are fanned out over a bounded worker pool (see
// RunConfig.Parallelism). Determinism is preserved by construction: the
// per-permutation shuffle RNGs are split from the seed in permutation order
// before any worker starts, each worker replays into its own pooled suite,
// and every (series, permutation, checkpoint) cell has exactly one writer.
func Run(cfg RunConfig) *RunResult {
	cfg.setDefaults()
	pop := cfg.Population
	rng := xrand.New(cfg.Seed).SplitNamed("runner")

	names := append([]string(nil), runSeries...)
	if cfg.TrackNeeded {
		names = append(names, SeriesNeededPos, SeriesNeededNeg)
	}

	// One RNG per permutation, split up front in permutation order, so the
	// stream permutation p sees does not depend on which worker replays it.
	permRNGs := make([]*xrand.RNG, cfg.Permutations)
	for p := range permRNGs {
		permRNGs[p] = rng.Split()
	}

	// ncp counts the checkpoints the replay can actually reach; rows are
	// sized for them up front so recording never grows a slice.
	ncp := 0
	for _, cp := range cfg.Checkpoints {
		if cp > len(cfg.Tasks) {
			break
		}
		ncp++
	}

	// rows[name] is a flat [permutation][checkpoint] matrix in row-major
	// order; workers write disjoint rows lock-free.
	rows := make(map[string][]float64, len(names))
	for _, n := range names {
		rows[n] = make([]float64, cfg.Permutations*ncp)
	}

	workers := cfg.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Permutations {
		workers = cfg.Permutations
	}

	pool := sync.Pool{New: func() any {
		return newReplayState(pop.N(), len(cfg.Tasks), cfg.Suite)
	}}
	replay := func(p int) {
		st := pool.Get().(*replayState)
		st.replayPerm(&cfg, p, ncp, permRNGs[p], rows)
		pool.Put(st)
	}

	if workers <= 1 {
		for p := 0; p < cfg.Permutations; p++ {
			replay(p)
		}
	} else {
		var wg sync.WaitGroup
		perms := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for p := range perms {
					replay(p)
				}
			}()
		}
		for p := 0; p < cfg.Permutations; p++ {
			perms <- p
		}
		close(perms)
		wg.Wait()
	}

	res := &RunResult{
		X:              make([]float64, ncp),
		Mean:           make(map[string][]float64, len(names)),
		Std:            make(map[string][]float64, len(names)),
		Truth:          float64(pop.NumDirty()),
		FinalEstimates: make(map[string][]float64, len(names)),
	}
	for i := 0; i < ncp; i++ {
		res.X[i] = float64(cfg.Checkpoints[i])
	}
	series := make([][]float64, cfg.Permutations)
	for _, n := range names {
		flat := rows[n]
		for p := 0; p < cfg.Permutations; p++ {
			series[p] = flat[p*ncp : (p+1)*ncp]
		}
		res.Mean[n] = stats.MeanSeries(series)
		res.Std[n] = stats.StdSeries(series)
		finals := make([]float64, cfg.Permutations)
		if ncp > 0 {
			for p := 0; p < cfg.Permutations; p++ {
				finals[p] = flat[(p+1)*ncp-1]
			}
		}
		res.FinalEstimates[n] = finals
	}
	return res
}

// neededSwitches counts, against the ground truth E, how many consensus
// decisions still have to flip: positive = consensus clean (default for
// unseen) but truly dirty; negative = consensus dirty but truly clean. This
// is the figures' "Ground Truth" line for the switch panels.
func neededSwitches(m *votes.Matrix, truth *dataset.GroundTruth) (pos, neg int) {
	for i := 0; i < m.NumItems(); i++ {
		maj := m.MajorityDirty(i)
		dirty := truth.IsDirty(i)
		switch {
		case dirty && !maj:
			pos++
		case !dirty && maj:
			neg++
		}
	}
	return pos, neg
}

// SRMSEAt computes the scaled RMSE of a series' final estimates against the
// population truth.
func (r *RunResult) SRMSEAt(name string) float64 {
	return stats.SRMSE(r.FinalEstimates[name], r.Truth)
}
