package experiment

import (
	"fmt"

	"dqm/internal/crowd"
	"dqm/internal/dataset"
	"dqm/internal/estimator"
	"dqm/internal/heuristic"
	"dqm/internal/stats"
	"dqm/internal/votes"
	"dqm/internal/xrand"
)

// Options are the shared knobs of every figure driver. Zero values select
// the paper-faithful defaults; benchmarks shrink Permutations and TaskScale
// to keep iterations fast.
type Options struct {
	// Seed drives dataset planting, worker realization and permutations.
	Seed uint64
	// Permutations is the paper's r (default 10).
	Permutations int
	// TaskScale multiplies the per-figure default task count (default 1.0).
	TaskScale float64
	// Parallelism bounds the permutation-replay worker pool of every Run a
	// driver issues (0 = GOMAXPROCS). Results are identical for any value.
	Parallelism int
}

func (o Options) perms() int {
	if o.Permutations <= 0 {
		return 10
	}
	return o.Permutations
}

func (o Options) scale(tasks int) int {
	s := o.TaskScale
	if s <= 0 {
		s = 1
	}
	n := int(float64(tasks) * s)
	if n < 1 {
		n = 1
	}
	return n
}

// Fig2a reproduces Figure 2(a): extrapolation over the full restaurant pair
// space (858² pairs, 106 duplicates) from four independently drawn,
// oracle-cleaned 2% samples. The point of the figure is the variance across
// samples.
func Fig2a(opts Options) *Figure {
	const (
		pairSpace = 858 * 858 // the paper counts the full cross product
		dupes     = 106
		samples   = 4
		frac      = 0.02
	)
	pop := dataset.NewPlantedPopulation(pairSpace, dupes, opts.Seed, "restaurant full pairs")
	rng := xrand.New(opts.Seed).SplitNamed("fig2a")
	oracle := crowd.Oracle{Truth: pop.Truth.IsDirty}

	n := pop.N()
	sampleSize := int(float64(n) * frac)
	fig := &Figure{
		ID:     "fig2a",
		Title:  "Extrapolation from four perfectly cleaned 2% samples",
		XLabel: "sample",
		YLabel: "estimated total errors",
		Consts: []Constant{{Name: "GROUND_TRUTH", Value: float64(dupes)}},
	}
	x := make([]float64, samples)
	est := make([]float64, samples)
	for i := 0; i < samples; i++ {
		sample := rng.SampleWithoutReplacement(pairSpace, sampleSize)
		found := oracle.CountErrors(sample)
		x[i] = float64(i + 1)
		est[i] = estimator.Extrapolate(found, sampleSize, pairSpace)
	}
	fig.Series = append(fig.Series, Series{Name: estimator.NameExtrapolate, X: x, Mean: est, Std: make([]float64, samples)})
	fig.Consts = append(fig.Consts,
		Constant{Name: "SAMPLE_SIZE", Value: float64(sampleSize)},
		Constant{Name: "EST_MEAN", Value: stats.Mean(est)},
		Constant{Name: "EST_STD", Value: stats.Std(est)},
	)
	return fig
}

// Fig2b reproduces Figure 2(b): the CrowdER-style pipeline where four
// samples of 100 candidate pairs are cleaned by increasingly many fallible
// crowd tasks; the majority labels of the sample are extrapolated to the
// full candidate set after every task. Early false positives inflate the
// estimate; their later correction drags it away again.
func Fig2b(opts Options) *Figure {
	const (
		samples    = 4
		sampleSize = 100
		perTask    = 10
	)
	pop := dataset.RestaurantCandidates(opts.Seed)
	nTasks := opts.scale(60)
	rng := xrand.New(opts.Seed).SplitNamed("fig2b")

	fig := &Figure{
		ID:     "fig2b",
		Title:  "Extrapolation with increasing cleaning effort (CrowdER 2-stage)",
		XLabel: "tasks",
		YLabel: "estimated total errors",
		Consts: []Constant{{Name: "GROUND_TRUTH", Value: float64(pop.NumDirty())}},
	}

	for s := 0; s < samples; s++ {
		sampleRNG := rng.Split()
		sample := sampleRNG.SampleWithoutReplacement(pop.N(), sampleSize)
		truth := func(local int) bool { return pop.Truth.IsDirty(sample[local]) }
		sim := crowd.NewSimulator(crowd.Config{
			Truth:        truth,
			N:            sampleSize,
			Profile:      RestaurantProfile,
			ItemsPerTask: perTask,
			Seed:         sampleRNG.Uint64(),
		})
		m := votes.NewMatrix(sampleSize)
		x := make([]float64, nTasks)
		est := make([]float64, nTasks)
		var buf []votes.Vote
		for t := 0; t < nTasks; t++ {
			buf = sim.AppendTask(buf[:0])
			m.AddAll(buf)
			x[t] = float64(t + 1)
			est[t] = estimator.Extrapolate(int(m.Majority()), sampleSize, pop.N())
		}
		fig.Series = append(fig.Series, Series{
			Name: fmt.Sprintf("SAMPLE_%d", s+1), X: x, Mean: est, Std: make([]float64, nTasks),
		})
	}
	return fig
}

// realDataConfig bundles what differs between Figures 3, 4 and 5.
type realDataConfig struct {
	id, name     string
	pop          *dataset.Population
	profile      crowd.Profile
	tasks        int
	itemsPerTask int
	// fpDifficulty marks confusable clean items (nil = none).
	fpDifficulty func(i int) float64
}

// runRealData produces the three panels of a real-dataset figure: (a) total
// error estimates vs tasks, (b) remaining positive switches, (c) remaining
// negative switches, each against ground truth, plus the EXTRAPOL ±1-std
// band and the SCM task count.
func runRealData(cfg realDataConfig, opts Options) []*Figure {
	nTasks := opts.scale(cfg.tasks)
	sim := crowd.NewSimulator(crowd.Config{
		Truth:        cfg.pop.Truth.IsDirty,
		N:            cfg.pop.N(),
		Profile:      cfg.profile,
		ItemsPerTask: cfg.itemsPerTask,
		FPDifficulty: cfg.fpDifficulty,
		Seed:         opts.Seed,
	})
	tasks := sim.Tasks(nTasks)

	res := Run(RunConfig{
		Population:   cfg.pop,
		Tasks:        tasks,
		Permutations: opts.perms(),
		Seed:         opts.Seed,
		TrackNeeded:  true,
		Parallelism:  opts.Parallelism,
		Suite: estimator.SuiteConfig{
			Switch: estimator.SwitchConfig{CapToPopulation: true},
		},
	})

	// EXTRAPOL band: 20 oracle-cleaned 5% samples.
	exMean, exStd := extrapolBand(cfg.pop, 0.05, 20, opts.Seed)
	sampleSize := int(0.05 * float64(cfg.pop.N()))
	scm := crowd.SCMTasks(sampleSize, cfg.itemsPerTask)

	mk := func(name string) Series {
		return Series{Name: name, X: res.X, Mean: res.Mean[name], Std: res.Std[name]}
	}
	figA := &Figure{
		ID:     cfg.id + "a",
		Title:  cfg.name + ": total error estimation",
		XLabel: "tasks",
		YLabel: "estimated total errors",
		Series: []Series{
			mk(estimator.NameVoting), mk(estimator.NameVChao92), mk(estimator.NameSwitch),
		},
		Consts: []Constant{
			{Name: "GROUND_TRUTH", Value: res.Truth},
			{Name: "EXTRAPOL_MEAN", Value: exMean},
			{Name: "EXTRAPOL_STD", Value: exStd},
			{Name: "SCM_TASKS", Value: float64(scm)},
		},
	}
	figB := &Figure{
		ID:     cfg.id + "b",
		Title:  cfg.name + ": remaining positive switches",
		XLabel: "tasks",
		YLabel: "positive switches",
		Series: []Series{mk(SeriesXiPos), mk(SeriesNeededPos)},
	}
	figC := &Figure{
		ID:     cfg.id + "c",
		Title:  cfg.name + ": remaining negative switches",
		XLabel: "tasks",
		YLabel: "negative switches",
		Series: []Series{mk(SeriesXiNeg), mk(SeriesNeededNeg)},
	}
	return []*Figure{figA, figB, figC}
}

// extrapolBand draws nSamples oracle-cleaned samples of the given fraction
// and returns the mean and std of the extrapolated totals.
func extrapolBand(pop *dataset.Population, frac float64, nSamples int, seed uint64) (mean, std float64) {
	rng := xrand.New(seed).SplitNamed("extrapol")
	oracle := crowd.Oracle{Truth: pop.Truth.IsDirty}
	size := int(frac * float64(pop.N()))
	if size < 1 {
		size = 1
	}
	ests := make([]float64, nSamples)
	for i := range ests {
		sample := rng.SampleWithoutReplacement(pop.N(), size)
		ests[i] = estimator.Extrapolate(oracle.CountErrors(sample), size, pop.N())
	}
	return stats.Mean(ests), stats.Std(ests)
}

// Fig3 reproduces Figure 3 (restaurant dataset, FP-heavy crowd).
func Fig3(opts Options) []*Figure {
	return runRealData(realDataConfig{
		id:           "fig3",
		name:         "Restaurant",
		pop:          dataset.RestaurantCandidates(opts.Seed),
		profile:      RestaurantProfile,
		tasks:        500,
		itemsPerTask: 10,
	}, opts)
}

// Fig4 reproduces Figure 4 (product dataset, FN-heavy crowd). The paper
// attributes V-CHAO's late degradation to "a few difficult pairs on which
// more than just a single worker make mistakes": near-miss product listings
// (same brand and noun, different edition) that repeatedly attract false
// positives. We plant ~1.5% of the clean candidates as such confusable pairs
// with a 100× false-positive multiplier (0.004 → 0.4 per view), so their
// repeated dirty votes survive the vChao92 shift.
func Fig4(opts Options) []*Figure {
	pop := dataset.ProductCandidates(opts.Seed)
	confusable := make(map[int]bool)
	rng := xrand.New(opts.Seed).SplitNamed("fig4-confusable")
	for len(confusable) < pop.N()*3/200 {
		i := rng.IntN(pop.N())
		if !pop.Truth.IsDirty(i) {
			confusable[i] = true
		}
	}
	return runRealData(realDataConfig{
		id:           "fig4",
		name:         "Product",
		pop:          pop,
		profile:      ProductProfile,
		tasks:        5000,
		itemsPerTask: 10,
		fpDifficulty: func(i int) float64 {
			if confusable[i] {
				return 100
			}
			return 1
		},
	}, opts)
}

// Fig5 reproduces Figure 5 (address dataset, mixed errors, no
// prioritization).
func Fig5(opts Options) []*Figure {
	return runRealData(realDataConfig{
		id:           "fig5",
		name:         "Address",
		pop:          dataset.AddressPopulation(opts.Seed),
		profile:      AddressProfile,
		tasks:        1000,
		itemsPerTask: 10,
	}, opts)
}

// sweepPoint runs one (profile, itemsPerTask) cell of the Figure 6 sweeps
// and returns the SRMSE of each estimator after nTasks tasks.
func sweepPoint(pop *dataset.Population, profile crowd.Profile, nTasks, itemsPerTask int, opts Options, seed uint64) map[string]float64 {
	sim := crowd.NewSimulator(crowd.Config{
		Truth:        pop.Truth.IsDirty,
		N:            pop.N(),
		Profile:      profile,
		ItemsPerTask: itemsPerTask,
		Seed:         seed,
	})
	res := Run(RunConfig{
		Population:   pop,
		Tasks:        sim.Tasks(nTasks),
		Checkpoints:  []int{nTasks},
		Permutations: opts.perms(),
		Seed:         seed,
		Parallelism:  opts.Parallelism,
	})
	out := make(map[string]float64, 4)
	for _, name := range []string{estimator.NameVoting, estimator.NameChao92, estimator.NameVChao92, estimator.NameSwitch} {
		out[name] = res.SRMSEAt(name)
	}
	return out
}

// Fig6a reproduces Figure 6(a): scaled estimation error as a function of
// worker precision, for 50 tasks of 15 items over the 1000/100 synthetic
// population. Chao92's sensitivity to false positives dominates: on seeds
// 42 and 7 it has the highest SRMSE of the four at every precision below 1.
// SWITCH does not beat VOTING here: its SRMSE is above VOTING's at every
// precision below 1 (3.357 against 0.15 at 0.75 on seed 42) and below it
// only at 1.0. TestFig6aOrderings pins both orderings.
func Fig6a(opts Options) *Figure {
	precisions := []float64{0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0}
	pop := dataset.SimulationPopulation(opts.Seed)
	nTasks := opts.scale(50)

	fig := &Figure{
		ID:     "fig6a",
		Title:  "SRMSE vs worker precision (50 tasks, 15 items/task)",
		XLabel: "precision",
		YLabel: "SRMSE",
	}
	names := []string{estimator.NameVoting, estimator.NameChao92, estimator.NameVChao92, estimator.NameSwitch}
	series := make(map[string]*Series, len(names))
	for _, n := range names {
		series[n] = &Series{Name: n}
	}
	for i, q := range precisions {
		point := sweepPoint(pop, crowd.FromPrecision(q), nTasks, 15, opts, opts.Seed+uint64(i))
		for _, n := range names {
			series[n].X = append(series[n].X, q)
			series[n].Mean = append(series[n].Mean, point[n])
			series[n].Std = append(series[n].Std, 0)
		}
	}
	for _, n := range names {
		fig.Series = append(fig.Series, *series[n])
	}
	return fig
}

// Fig6b reproduces Figure 6(b): scaled estimation error as a function of
// the number of items per task (coverage), with false negatives only.
// Without false positives Chao92 is the best estimator — the forward-looking
// property the paper highlights.
func Fig6b(opts Options) *Figure {
	itemsPerTask := []int{5, 10, 15, 20, 30, 40, 50, 75, 100}
	pop := dataset.SimulationPopulation(opts.Seed)
	nTasks := opts.scale(50)

	fig := &Figure{
		ID:     "fig6b",
		Title:  "SRMSE vs items per task, false negatives only (50 tasks)",
		XLabel: "items/task",
		YLabel: "SRMSE",
	}
	names := []string{estimator.NameVoting, estimator.NameChao92, estimator.NameVChao92, estimator.NameSwitch}
	series := make(map[string]*Series, len(names))
	for _, n := range names {
		series[n] = &Series{Name: n}
	}
	for i, p := range itemsPerTask {
		point := sweepPoint(pop, FNOnlyProfile, nTasks, p, opts, opts.Seed+uint64(i))
		for _, n := range names {
			series[n].X = append(series[n].X, float64(p))
			series[n].Mean = append(series[n].Mean, point[n])
			series[n].Std = append(series[n].Std, 0)
		}
	}
	for _, n := range names {
		fig.Series = append(fig.Series, *series[n])
	}
	return fig
}

// fig7Scenario runs one panel of Figure 7: estimates vs tasks for a worker
// error scenario over the 1000/100 synthetic population (15 items/task).
func fig7Scenario(id, title string, profile crowd.Profile, opts Options) *Figure {
	pop := dataset.SimulationPopulation(opts.Seed)
	nTasks := opts.scale(400)
	sim := crowd.NewSimulator(crowd.Config{
		Truth:        pop.Truth.IsDirty,
		N:            pop.N(),
		Profile:      profile,
		ItemsPerTask: 15,
		Seed:         opts.Seed,
	})
	res := Run(RunConfig{
		Population:   pop,
		Tasks:        sim.Tasks(nTasks),
		Permutations: opts.perms(),
		Seed:         opts.Seed,
		Parallelism:  opts.Parallelism,
	})
	mk := func(name string) Series {
		return Series{Name: name, X: res.X, Mean: res.Mean[name], Std: res.Std[name]}
	}
	return &Figure{
		ID:     id,
		Title:  title,
		XLabel: "tasks",
		YLabel: "estimated total errors",
		Series: []Series{
			mk(estimator.NameVoting), mk(estimator.NameChao92),
			mk(estimator.NameVChao92), mk(estimator.NameSwitch),
		},
		Consts: []Constant{{Name: "GROUND_TRUTH", Value: res.Truth}},
	}
}

// Fig7a reproduces Figure 7(a): false negatives only (10%).
func Fig7a(opts Options) *Figure {
	return fig7Scenario("fig7a", "Simulation: false negatives only (10%)", FNOnlyProfile, opts)
}

// Fig7b reproduces Figure 7(b): false positives only (1%).
func Fig7b(opts Options) *Figure {
	return fig7Scenario("fig7b", "Simulation: false positives only (1%)", FPOnlyProfile, opts)
}

// Fig7c reproduces Figure 7(c): both error types (10% FN, 1% FP).
func Fig7c(opts Options) *Figure {
	return fig7Scenario("fig7c", "Simulation: both error types (10% FN, 1% FP)", BothProfile, opts)
}

// Fig8 reproduces Figure 8: accuracy of the SWITCH estimate as a function of
// the prioritization randomization ε, for a mostly-accurate (10% error) and
// a poor (50% error) heuristic. Workers see R_H with probability 1−ε and
// R_H^c with probability ε; the estimate targets the whole population.
func Fig8(opts Options) *Figure {
	epsilons := []float64{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5}
	heuristicErrs := []float64{0.1, 0.5}
	const windowSize = 250
	pop := dataset.SimulationPopulation(opts.Seed)
	nTasks := opts.scale(50)

	fig := &Figure{
		ID:     "fig8",
		Title:  "SWITCH SRMSE vs ε for 10%- and 50%-error heuristics (50 tasks)",
		XLabel: "epsilon",
		YLabel: "SRMSE",
		Consts: []Constant{
			{Name: "GROUND_TRUTH", Value: float64(pop.NumDirty())},
			{Name: "WINDOW_SIZE", Value: windowSize},
		},
	}
	for _, he := range heuristicErrs {
		s := Series{Name: fmt.Sprintf("SWITCH_H%.0f%%", he*100)}
		for i, eps := range epsilons {
			seed := opts.Seed + uint64(i)*1000 + uint64(he*100)
			root := xrand.New(seed).SplitNamed("fig8")
			synth := heuristic.NewSynthetic(pop.N(), pop.Truth.DirtyItems(), windowSize, he, root.SplitNamed("heuristic"))
			sampler := heuristic.NewEpsilonSampler(synth.RH, synth.RHC, eps, root.SplitNamed("sampler"))
			sim := crowd.NewSimulator(crowd.Config{
				Truth:        pop.Truth.IsDirty,
				N:            pop.N(),
				Profile:      BothProfile,
				ItemsPerTask: 15,
				Sampler:      sampler,
				Seed:         seed,
			})
			res := Run(RunConfig{
				Population:   pop,
				Tasks:        sim.Tasks(nTasks),
				Checkpoints:  []int{nTasks},
				Permutations: opts.perms(),
				Seed:         seed,
			})
			s.X = append(s.X, eps)
			s.Mean = append(s.Mean, res.SRMSEAt(estimator.NameSwitch))
			s.Std = append(s.Std, 0)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Sec321 reproduces the worked examples of Section 3.2.1: 1000 candidate
// pairs with 100 duplicates, tasks of 20 pairs, detection rate 0.9, 100
// tasks. Example 1 has no false positives and Chao92 nearly nails the
// remaining-error count; Example 2 adds a 1% false positive rate and Chao92
// overshoots — the singleton-error entanglement.
func Sec321(opts Options) *Figure {
	pop := dataset.NewPlantedPopulation(1000, 100, opts.Seed, "sec321")
	nTasks := opts.scale(100)

	runCase := func(name string, fp float64) []Constant {
		sim := crowd.NewSimulator(crowd.Config{
			Truth:        pop.Truth.IsDirty,
			N:            pop.N(),
			Profile:      crowd.Profile{FPRate: fp, FNRate: 0.1},
			ItemsPerTask: 20,
			Seed:         opts.Seed,
		})
		m := votes.NewMatrix(pop.N())
		var buf []votes.Vote
		for t := 0; t < nTasks; t++ {
			buf = sim.AppendTask(buf[:0])
			m.AddAll(buf)
		}
		f := m.DirtyFingerprint()
		est := estimator.Chao92(m, estimator.WithoutSkewCorrection())
		return []Constant{
			{Name: name + "_C_NOMINAL", Value: float64(m.Nominal())},
			{Name: name + "_N_POS", Value: float64(m.PositiveVotes())},
			{Name: name + "_F1", Value: float64(f.Singletons())},
			{Name: name + "_REMAINING_EST", Value: est - float64(m.Nominal())},
		}
	}

	fig := &Figure{
		ID:     "sec321",
		Title:  "Worked examples of §3.2.1 (Chao92 with and without false positives)",
		XLabel: "",
		Notes: []string{
			"Example 1: no false positives; paper reports c=83, n+=180, f1=30, remaining≈16.6",
			"Example 2: 1% false positives; paper reports f1≈46, n+≈208, remaining≈131 (overestimate)",
		},
	}
	fig.Consts = append(fig.Consts, Constant{Name: "GROUND_TRUTH", Value: 100})
	fig.Consts = append(fig.Consts, runCase("EX1", 0)...)
	fig.Consts = append(fig.Consts, runCase("EX2", 0.01)...)
	return fig
}
