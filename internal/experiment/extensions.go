package experiment

import (
	"dqm/internal/algoclean"
	"dqm/internal/crowd"
	"dqm/internal/dataset"
	"dqm/internal/estimator"
	"dqm/internal/quality"
	"dqm/internal/rules"
	"dqm/internal/votes"
	"dqm/internal/xrand"
)

// ExtAlgorithmic measures the paper's §8 extension: a committee of
// semi-independent algorithmic cleaners replaces the crowd over the address
// dataset. Committee members share most of the rule catalog but each has a
// blind spot ("leave one class out"), plus two deliberately imperfect
// members with systematic false positives. The figure reports the usual
// estimator series against both the true error count and the committee's
// consensus ceiling — the number of errors a majority of algorithms can
// ever see, which is what the estimators actually converge to.
func ExtAlgorithmic(opts Options) *Figure {
	data := dataset.GenerateAddresses(dataset.AddressConfig{Seed: opts.Seed})
	n := len(data.Records)
	pop := &dataset.Population{Truth: data.Truth, Describe: "address records (algorithmic)"}

	all := rules.AllRules()
	leaveOut := func(name string, skip string) algoclean.Judge {
		var kept []rules.Rule
		for _, r := range all {
			if r.Name() != skip {
				kept = append(kept, r)
			}
		}
		return algoclean.RuleJudge(name, data.Records, kept...)
	}
	fullDet := rules.NewDetector()
	strictNumber := algoclean.New("strict-number", func(i int) votes.Label {
		if fullDet.Dirty(data.Records[i]) || data.Records[i].Number > 18000 {
			return votes.Dirty
		}
		return votes.Clean
	})
	committee := algoclean.NewCommittee(
		leaveOut("no-business", "business-keyword"),
		leaveOut("no-fd", "zip-city-fd"),
		leaveOut("no-reference", "city-name"),
		leaveOut("no-zip-range", "zip-range"),
		algoclean.RuleJudge("full-rules", data.Records),
		strictNumber,
	)

	tasks := committee.Tasks(n, 10, xrand.New(opts.Seed).SplitNamed("ext-algo"))
	res := Run(RunConfig{
		Population:   pop,
		Tasks:        tasks,
		Permutations: opts.perms(),
		Seed:         opts.Seed,
		Parallelism:  opts.Parallelism,
		Suite: estimator.SuiteConfig{
			Switch: estimator.SwitchConfig{CapToPopulation: true},
		},
	})

	// The consensus ceiling: errors visible to a strict majority of the
	// committee.
	ceiling := 0
	for i, dirty := range committee.Consensus(n) {
		if dirty && data.Truth.IsDirty(i) {
			ceiling++
		}
	}

	mk := func(name string) Series {
		return Series{Name: name, X: res.X, Mean: res.Mean[name], Std: res.Std[name]}
	}
	return &Figure{
		ID:     "ext-algorithmic",
		Title:  "Extension (§8): committee of algorithmic cleaners over the address dataset",
		XLabel: "algorithm tasks",
		YLabel: "estimated total errors",
		Series: []Series{
			mk(estimator.NameNominal), mk(estimator.NameVoting), mk(estimator.NameSwitch),
		},
		Consts: []Constant{
			{Name: "GROUND_TRUTH", Value: res.Truth},
			{Name: "CONSENSUS_CEILING", Value: float64(ceiling)},
			{Name: "COMMITTEE_SIZE", Value: float64(committee.Size())},
		},
		Notes: []string{
			"estimates converge to the committee's consensus ceiling, not the unknowable truth:",
			"errors no majority of algorithms can detect are the paper's §6.3 black swans",
		},
	}
}

// ExtQuality measures the §1.2 quality-control techniques the paper builds
// on: as tasks accumulate, how do the majority consensus and Dawid–Skene EM
// compare at recovering the true labels of *observed* items, and how does
// inter-worker agreement (Fleiss' kappa) evolve? The paper's argument is
// that even the best consensus over observed items cannot answer the
// remaining-error question; this driver quantifies the other half of that
// sentence — what consensus refinement can and cannot buy.
func ExtQuality(opts Options) *Figure {
	pop := dataset.SimulationPopulation(opts.Seed)
	nTasks := opts.scale(400)
	sim := crowd.NewSimulator(crowd.Config{
		Truth:        pop.Truth.IsDirty,
		N:            pop.N(),
		Profile:      crowd.Profile{FPRate: 0.05, FNRate: 0.2, Jitter: 0.5},
		ItemsPerTask: 15,
		PoolSize:     25,
		Seed:         opts.Seed,
	})

	m := votes.NewMatrix(pop.N(), votes.WithHistory())
	checkpoints := EvenCheckpoints(nTasks, 25)
	var (
		xs                           []float64
		majErrs, emErrs, kappaSeries []float64
	)
	next := 0
	var buf []votes.Vote
	for ti, task := range sim.Tasks(nTasks) {
		buf = task.AppendVotes(buf[:0])
		m.AddAll(buf)
		if next < len(checkpoints) && ti+1 == checkpoints[next] {
			next++
			res, err := quality.EM(m, quality.EMConfig{})
			if err != nil {
				panic(err) // history is always retained here
			}
			emLabels := res.Labels()
			var majWrong, emWrong int
			for i := 0; i < pop.N(); i++ {
				truth := pop.Truth.IsDirty(i)
				if m.MajorityDirty(i) != truth {
					majWrong++
				}
				if emLabels[i] != truth {
					emWrong++
				}
			}
			xs = append(xs, float64(ti+1))
			majErrs = append(majErrs, float64(majWrong))
			emErrs = append(emErrs, float64(emWrong))
			kappaSeries = append(kappaSeries, quality.FleissKappa(m))
		}
	}

	zero := make([]float64, len(xs))
	return &Figure{
		ID:     "ext-quality",
		Title:  "Extension (§1.2): consensus label errors, majority vs Dawid–Skene EM",
		XLabel: "tasks",
		YLabel: "wrong consensus labels",
		Series: []Series{
			{Name: "MAJORITY_ERRORS", X: xs, Mean: majErrs, Std: zero},
			{Name: "EM_ERRORS", X: xs, Mean: emErrs, Std: zero},
			{Name: "FLEISS_KAPPA", X: xs, Mean: kappaSeries, Std: zero},
		},
		Consts: []Constant{{Name: "GROUND_TRUTH", Value: float64(pop.NumDirty())}},
		Notes: []string{
			"EM refines labels of observed items; neither technique predicts unobserved errors",
		},
	}
}

// ExtFatigue studies worker fatigue (§2.2.1 names it among the failure
// modes): a small worker pool degrades as it repeats tasks, so later votes
// are noisier than earlier ones. The run compares fresh and fatigued crowds
// on the mixed-error scenario — SWITCH absorbs the drift as long as the
// majority stays better than random.
func ExtFatigue(opts Options) *Figure {
	pop := dataset.SimulationPopulation(opts.Seed)
	nTasks := opts.scale(400)

	run := func(fatigue float64) *RunResult {
		sim := crowd.NewSimulator(crowd.Config{
			Truth:        pop.Truth.IsDirty,
			N:            pop.N(),
			Profile:      crowd.Profile{FPRate: 0.01, FNRate: 0.1, Fatigue: fatigue},
			ItemsPerTask: 15,
			PoolSize:     10,
			Seed:         opts.Seed,
		})
		return Run(RunConfig{
			Population:   pop,
			Tasks:        sim.Tasks(nTasks),
			Permutations: opts.perms(),
			Seed:         opts.Seed,
			Parallelism:  opts.Parallelism,
		})
	}
	fresh := run(0)
	tired := run(0.02)

	mk := func(name, label string, r *RunResult) Series {
		return Series{Name: label, X: r.X, Mean: r.Mean[name], Std: r.Std[name]}
	}
	return &Figure{
		ID:     "ext-fatigue",
		Title:  "Extension (§2.2.1): worker fatigue, fresh vs degrading crowds",
		XLabel: "tasks",
		YLabel: "estimated total errors",
		Series: []Series{
			mk(estimator.NameVoting, "VOTING_FRESH", fresh),
			mk(estimator.NameVoting, "VOTING_FATIGUED", tired),
			mk(estimator.NameSwitch, "SWITCH_FRESH", fresh),
			mk(estimator.NameSwitch, "SWITCH_FATIGUED", tired),
		},
		Consts: []Constant{{Name: "GROUND_TRUTH", Value: fresh.Truth}},
	}
}

// ExtRedundancy tests the §1.2 claim that the redundancy added by random
// worker assignment "is marginal compared to the fixed assignment (exactly
// three votes per item)". Both schedules spend the same budget of votes;
// the figure compares the quality of the resulting majority consensus and
// of the SWITCH estimate. Fixed assignment spreads votes perfectly evenly
// but supports no estimation beyond the sample; random assignment funds the
// species statistics.
func ExtRedundancy(opts Options) *Figure {
	pop := dataset.SimulationPopulation(opts.Seed)
	n := pop.N()
	profile := crowd.Profile{FPRate: 0.02, FNRate: 0.15, Jitter: 0.25}
	const itemsPerTask = 10

	// Fixed quorum: every item exactly 3 votes = 300 tasks of 10.
	root := xrand.New(opts.Seed).SplitNamed("ext-redundancy")
	pool := crowd.NewPool(40, profile, root.SplitNamed("pool"))
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	quorum := crowd.QuorumTasks(items, 3, itemsPerTask, pool, pop.Truth.IsDirty, root.SplitNamed("quorum"))

	// Random assignment with the same total budget.
	sim := crowd.NewSimulator(crowd.Config{
		Truth:        pop.Truth.IsDirty,
		N:            n,
		Profile:      profile,
		ItemsPerTask: itemsPerTask,
		Seed:         opts.Seed,
	})
	random := sim.Tasks(len(quorum))

	score := func(tasks []crowd.Task) (majorityErrs float64, switchErr float64) {
		suite := estimator.NewSuite(n, estimator.SuiteConfig{})
		var buf []votes.Vote
		for _, task := range tasks {
			buf = task.AppendVotes(buf[:0])
			suite.ObserveTask(buf)
		}
		wrong := 0
		for i := 0; i < n; i++ {
			if suite.Matrix.MajorityDirty(i) != pop.Truth.IsDirty(i) {
				wrong++
			}
		}
		est := suite.EstimateAll()
		return float64(wrong), est.Switch.Total - float64(pop.NumDirty())
	}
	qMajErr, qSwErr := score(quorum)
	rMajErr, rSwErr := score(random)

	return &Figure{
		ID:     "ext-redundancy",
		Title:  "Extension (§1.2): fixed 3-vote quorum vs random assignment at equal budget",
		XLabel: "",
		Consts: []Constant{
			{Name: "GROUND_TRUTH", Value: float64(pop.NumDirty())},
			{Name: "BUDGET_TASKS", Value: float64(len(quorum))},
			{Name: "QUORUM_MAJORITY_ERRS", Value: qMajErr},
			{Name: "RANDOM_MAJORITY_ERRS", Value: rMajErr},
			{Name: "QUORUM_SWITCH_BIAS", Value: qSwErr},
			{Name: "RANDOM_SWITCH_BIAS", Value: rSwErr},
		},
		Notes: []string{
			"majority-error gap between schedules is the 'marginal redundancy' of §1.2;",
			"only the random schedule yields a usable remaining-error estimate",
		},
	}
}
