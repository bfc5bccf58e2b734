// Benchmarks regenerating the paper's evaluation. Each BenchmarkFig* target
// runs the corresponding figure driver end to end (dataset planting, crowd
// simulation, permutation-averaged estimation) on a reduced configuration;
// run `go run ./cmd/dqm-experiments -figure all` for the full-size series
// recorded in EXPERIMENTS.md.
//
// Micro-benchmarks cover the hot paths (vote ingestion, switch tracking,
// estimator evaluation, similarity scoring), and BenchmarkAblation* measure
// the design alternatives called out in DESIGN.md §5.
package dqm

import (
	"testing"

	"dqm/internal/crowd"
	"dqm/internal/dataset"
	"dqm/internal/estimator"
	"dqm/internal/experiment"
	"dqm/internal/similarity"
	"dqm/internal/stats"
	"dqm/internal/switchstat"
	"dqm/internal/votes"
	"dqm/internal/xrand"
)

// benchOpts returns a reduced-but-representative configuration; the seed
// varies per iteration so the compiler/runtime cannot cache across runs.
func benchOpts(i int) experiment.Options {
	return experiment.Options{Seed: uint64(i) + 1, Permutations: 2, TaskScale: 0.2}
}

func benchFigure(b *testing.B, id string) {
	b.Helper()
	driver, err := experiment.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		figs := driver(benchOpts(i))
		if len(figs) == 0 {
			b.Fatal("driver produced no figures")
		}
	}
}

// One bench per figure of the paper's evaluation (Section 6) plus the
// §3.2.1 worked examples.

func BenchmarkFig2aExtrapolationVariance(b *testing.B) { benchFigure(b, "2a") }
func BenchmarkFig2bExtrapolationWorkers(b *testing.B)  { benchFigure(b, "2b") }
func BenchmarkFig3Restaurant(b *testing.B)             { benchFigure(b, "3") }
func BenchmarkFig4Product(b *testing.B)                { benchFigure(b, "4") }
func BenchmarkFig5Address(b *testing.B)                { benchFigure(b, "5") }
func BenchmarkFig6aPrecisionSweep(b *testing.B)        { benchFigure(b, "6a") }
func BenchmarkFig6bCoverageSweep(b *testing.B)         { benchFigure(b, "6b") }
func BenchmarkFig7aFalseNegOnly(b *testing.B)          { benchFigure(b, "7a") }
func BenchmarkFig7bFalsePosOnly(b *testing.B)          { benchFigure(b, "7b") }
func BenchmarkFig7cBothErrors(b *testing.B)            { benchFigure(b, "7c") }
func BenchmarkFig8EpsilonSweep(b *testing.B)           { benchFigure(b, "8") }
func BenchmarkSec321WorkedExamples(b *testing.B)       { benchFigure(b, "sec321") }

// Ablation benches for the design choices in DESIGN.md §5.

func BenchmarkAblationSwitchVariants(b *testing.B) { benchFigure(b, "ablation-switch") }
func BenchmarkAblationVChaoShift(b *testing.B)     { benchFigure(b, "ablation-vchao") }
func BenchmarkAblationBaselines(b *testing.B)      { benchFigure(b, "ablation-baselines") }

// Extension studies: the §8 algorithmic-cleaning committee, the §1.2
// quality-control comparison and the §2.2.1 fatigue model.
func BenchmarkExtAlgorithmicCommittee(b *testing.B) { benchFigure(b, "ext-algorithmic") }
func BenchmarkExtQualityEM(b *testing.B)            { benchFigure(b, "ext-quality") }
func BenchmarkExtFatigue(b *testing.B)              { benchFigure(b, "ext-fatigue") }
func BenchmarkExtRedundancy(b *testing.B)           { benchFigure(b, "ext-redundancy") }

func BenchmarkBootstrapSwitchCI(b *testing.B) {
	pop := dataset.SimulationPopulation(2)
	sim := crowd.NewSimulator(crowd.Config{
		Truth:        pop.Truth.IsDirty,
		N:            pop.N(),
		Profile:      crowd.Profile{FPRate: 0.01, FNRate: 0.1},
		ItemsPerTask: 15,
		Seed:         2,
	})
	e := estimator.NewSwitch(pop.N(), estimator.SwitchConfig{RetainLedgers: true})
	for _, task := range sim.Tasks(300) {
		for _, v := range task.Votes() {
			e.Observe(v)
		}
		e.EndTask()
	}
	rng := xrand.New(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.BootstrapSwitch(50, 0.95, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmarks for the streaming hot paths.

func benchVoteStream(n, votesN int, seed uint64) []votes.Vote {
	rng := xrand.New(seed)
	out := make([]votes.Vote, votesN)
	for i := range out {
		out[i] = votes.Vote{
			Item:   rng.IntN(n),
			Worker: rng.IntN(40),
			Label:  votes.Label(rng.IntN(2)),
		}
	}
	return out
}

func BenchmarkMatrixAdd(b *testing.B) {
	const n = 10000
	stream := benchVoteStream(n, 100000, 1)
	m := votes.NewMatrix(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Add(stream[i%len(stream)])
	}
}

func BenchmarkSwitchTrackerAdd(b *testing.B) {
	const n = 10000
	stream := benchVoteStream(n, 100000, 2)
	tr := switchstat.NewTracker(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.AddVote(stream[i%len(stream)])
	}
}

// benchRowsAdd ingests a stream into a matrix and the tracker that keeps its
// switch state in the matrix's rows, the way a suite feeds them. First it
// gives one item warm votes and resets, so the rows keep the layout those
// votes widened them to, and it resets both again at the start of every
// cycle of the stream, so no item widens them further during the run.
func benchRowsAdd(b *testing.B, warm, bits int) {
	const n = 10000
	stream := benchVoteStream(n, 100000, 5)
	m := votes.NewMatrix(n)
	tr := switchstat.NewTrackerOn(m)
	for k := 0; k < warm; k++ {
		v := votes.Vote{Item: 0, Label: votes.Clean}
		m.Add(v)
		tr.AddVote(v)
	}
	if got := m.Rows().Bits(); got != bits {
		b.Fatalf("rows are %d bits wide, want %d", got, bits)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(stream)
		if k == 0 {
			m.Reset()
			tr.Reset()
		}
		m.Add(stream[k])
		tr.AddVote(stream[k])
	}
	b.StopTimer()
	if got := m.Rows().Bits(); got != bits {
		b.Fatalf("rows widened to %d bits during the run, want %d", got, bits)
	}
}

// BenchmarkAdd8Bit is the path of every vote while no item of a suite has
// passed votes.MaxVotes8 votes: 4 B rows.
func BenchmarkAdd8Bit(b *testing.B) { benchRowsAdd(b, 0, 8) }

// BenchmarkAdd16Bit is the path once one item has passed votes.MaxVotes8
// votes: 8 B rows.
func BenchmarkAdd16Bit(b *testing.B) { benchRowsAdd(b, votes.MaxVotes8+1, 16) }

// BenchmarkWideAdd is the path once one item has passed votes.MaxVotes16
// votes: 16 B rows. Every layout stays allocation-free.
func BenchmarkWideAdd(b *testing.B) { benchRowsAdd(b, votes.MaxVotes16+1, 32) }

func BenchmarkChao92Estimate(b *testing.B) {
	const n = 5000
	m := votes.NewMatrix(n)
	for _, v := range benchVoteStream(n, 50000, 3) {
		m.Add(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = estimator.Chao92(m)
	}
}

func BenchmarkSwitchEstimate(b *testing.B) {
	const n = 5000
	e := estimator.NewSwitch(n, estimator.SwitchConfig{})
	for i, v := range benchVoteStream(n, 50000, 4) {
		e.Observe(v)
		if i%10 == 9 {
			e.EndTask()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Estimate()
	}
}

func BenchmarkSuiteObserveTask(b *testing.B) {
	const n = 5000
	suite := estimator.NewSuite(n, estimator.SuiteConfig{})
	stream := benchVoteStream(n, 100000, 5)
	task := make([]votes.Vote, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(task, stream[(i*10)%(len(stream)-10):])
		suite.ObserveTask(task)
	}
}

func BenchmarkLevenshtein(b *testing.B) {
	a := "Ritz-Carlton Cafe Buckhead Atlanta"
	c := "Cafe Ritz-Carlton (buckhead) atl"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = similarity.Levenshtein(a, c)
	}
}

func BenchmarkEditSimilarityAtLeast(b *testing.B) {
	a := "ritz carlton cafe buckhead atlanta"
	c := "totally different product listing"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = similarity.EditSimilarityAtLeast(a, c, 0.5)
	}
}

func BenchmarkTokenSortedEditSimilarity(b *testing.B) {
	a := "Adobe Photoshop Elements 5.0 Deluxe"
	c := "photoshop elements deluxe 5.0 adobe"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = similarity.TokenSortedEditSimilarity(a, c)
	}
}

// benchRunConfig assembles the permutation-replay workload the parallelism
// benchmarks share: the restaurant population with the paper's r=10 replays.
func benchRunConfig(parallelism int) experiment.RunConfig {
	pop := dataset.RestaurantCandidates(1)
	sim := crowd.NewSimulator(crowd.Config{
		Truth:        pop.Truth.IsDirty,
		N:            pop.N(),
		Profile:      crowd.Profile{FPRate: 0.05, FNRate: 0.25, Jitter: 0.25},
		ItemsPerTask: 10,
		Seed:         1,
	})
	return experiment.RunConfig{
		Population:   pop,
		Tasks:        sim.Tasks(200),
		Permutations: 10,
		Seed:         1,
		Parallelism:  parallelism,
	}
}

// BenchmarkRunSequential and BenchmarkRunParallel measure the replay engine
// with a single worker and with one worker per core; their ratio is the
// parallel speedup (1.0 on single-core machines).
func BenchmarkRunSequential(b *testing.B) {
	cfg := benchRunConfig(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiment.Run(cfg)
	}
}

func BenchmarkRunParallel(b *testing.B) {
	cfg := benchRunConfig(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiment.Run(cfg)
	}
}

func BenchmarkCrowdSimulatorAppendTask(b *testing.B) {
	pop := dataset.SimulationPopulation(1)
	sim := crowd.NewSimulator(crowd.Config{
		Truth:        pop.Truth.IsDirty,
		N:            pop.N(),
		Profile:      crowd.Profile{FPRate: 0.01, FNRate: 0.1},
		ItemsPerTask: 15,
		Seed:         1,
	})
	var buf []votes.Vote
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = sim.AppendTask(buf[:0])
	}
}

func BenchmarkCrowdSimulatorTask(b *testing.B) {
	pop := dataset.SimulationPopulation(1)
	sim := crowd.NewSimulator(crowd.Config{
		Truth:        pop.Truth.IsDirty,
		N:            pop.N(),
		Profile:      crowd.Profile{FPRate: 0.01, FNRate: 0.1},
		ItemsPerTask: 15,
		Seed:         1,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sim.NextTask()
	}
}

func BenchmarkFingerprintShift(b *testing.B) {
	f := stats.Freq{0, 100, 50, 25, 12, 6, 3, 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = f.Shift(1)
	}
}
