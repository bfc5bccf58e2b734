// Package crowd simulates the crowdsourced cleaning process of Sections 1.2
// and 6: fallible workers receive tasks of p items sampled at random
// (uniformly, or ε-randomized over a heuristic window), and mark each item
// dirty or clean with worker-specific false-positive and false-negative
// rates. This replaces the paper's Amazon Mechanical Turk deployments; the
// estimators only ever see the resulting vote stream.
package crowd

import (
	"fmt"

	"dqm/internal/votes"
	"dqm/internal/xrand"
)

// Profile describes a population of workers by their expected error rates.
type Profile struct {
	// FPRate is the probability a worker marks a truly clean item dirty.
	FPRate float64
	// FNRate is the probability a worker misses a truly dirty item.
	FNRate float64
	// Jitter is the standard deviation of per-worker deviation from the
	// population rates (truncated so rates stay in [0, 1]). Zero yields
	// identical workers.
	Jitter float64
	// Fatigue makes workers degrade with repetition (§2.2.1 lists fatigue
	// among the failure modes the estimators must tolerate): after a worker
	// completes k tasks, both error rates are multiplied by (1 + Fatigue·k),
	// saturating at 1. Zero disables the effect.
	Fatigue float64
}

// FromPrecision builds the symmetric-error profile of the Figure 6a sweep:
// a worker with precision q classifies any item correctly with probability
// q, so FPRate = FNRate = 1 − q.
func FromPrecision(q float64) Profile {
	return Profile{FPRate: 1 - q, FNRate: 1 - q}
}

// Worker is one crowd worker with realized error rates.
type Worker struct {
	ID int
	FP float64
	FN float64
}

// Respond produces the worker's label for an item whose true state is
// isDirty. fnDifficulty scales the false-negative rate (≥ 1 = a true error
// that is harder to spot, used by the address error taxonomy) and
// fpDifficulty scales the false-positive rate (≥ 1 = a clean item that looks
// dirty, the "difficult pairs" of the product experiment); pass 1 for the
// neutral case.
func (w Worker) Respond(r *xrand.RNG, isDirty bool, fnDifficulty, fpDifficulty float64) votes.Label {
	if isDirty {
		fn := w.FN * fnDifficulty
		if fn > 1 {
			fn = 1
		}
		if r.Bernoulli(fn) {
			return votes.Clean
		}
		return votes.Dirty
	}
	fp := w.FP * fpDifficulty
	if fp > 1 {
		fp = 1
	}
	if r.Bernoulli(fp) {
		return votes.Dirty
	}
	return votes.Clean
}

// Pool is a reusable set of workers drawn from a profile. Reusing workers
// across tasks preserves per-worker bias correlation, mirroring AMT workers
// taking many tasks.
type Pool struct {
	workers []Worker
}

// NewPool realizes size workers from the profile.
func NewPool(size int, p Profile, r *xrand.RNG) *Pool {
	if size <= 0 {
		panic(fmt.Sprintf("crowd: pool size %d must be positive", size))
	}
	ws := make([]Worker, size)
	for i := range ws {
		ws[i] = Worker{
			ID: i,
			FP: r.TruncNorm(p.FPRate, p.Jitter*p.FPRate, 0, 1),
			FN: r.TruncNorm(p.FNRate, p.Jitter*p.FNRate, 0, 1),
		}
	}
	return &Pool{workers: ws}
}

// Size returns the number of workers.
func (p *Pool) Size() int { return len(p.workers) }

// Worker returns worker i.
func (p *Pool) Worker(i int) Worker { return p.workers[i] }

// Pick returns a uniformly chosen worker.
func (p *Pool) Pick(r *xrand.RNG) Worker { return p.workers[r.IntN(len(p.workers))] }

// Task is one unit of crowd work: a single worker's labels over a sample of
// items.
type Task struct {
	Worker int
	Items  []int
	Labels []votes.Label
}

// AppendVotes appends the task's matrix entries to dst and returns the
// extended slice. Replay loops pass a reused buffer (dst[:0]) to keep the
// per-task hot path allocation-free.
func (t Task) AppendVotes(dst []votes.Vote) []votes.Vote {
	for i, item := range t.Items {
		dst = append(dst, votes.Vote{Item: item, Worker: t.Worker, Label: t.Labels[i]})
	}
	return dst
}

// Sampler picks the items for one task. heuristic.EpsilonSampler satisfies
// this; Uniform is the unprioritized default.
type Sampler interface {
	Draw(k int) []int
}

// Uniform samples each task uniformly without replacement from [0, N).
type Uniform struct {
	N   int
	RNG *xrand.RNG
}

// Draw implements Sampler.
func (u Uniform) Draw(k int) []int { return u.RNG.SampleWithoutReplacement(u.N, k) }

// Config assembles a simulator.
type Config struct {
	// Truth reports whether item i is truly dirty.
	Truth func(i int) bool
	// N is the item-space size.
	N int
	// Profile describes the worker population.
	Profile Profile
	// ItemsPerTask is p; the paper uses 10 for the real datasets and 15–20
	// in the simulation study.
	ItemsPerTask int
	// PoolSize is the number of distinct workers; 0 derives a default from
	// the task volume (one worker per ~3 tasks, min 10).
	PoolSize int
	// Sampler overrides uniform task sampling (for prioritization).
	Sampler Sampler
	// Difficulty scales per-item false-negative rates; nil means uniform 1.
	Difficulty func(i int) float64
	// FPDifficulty scales per-item false-positive rates (confusable clean
	// items that fool many workers); nil means uniform 1.
	FPDifficulty func(i int) float64
	// Seed drives all randomness.
	Seed uint64
}

// Simulator produces a deterministic stream of crowd tasks.
type Simulator struct {
	cfg     Config
	pool    *Pool
	sampler Sampler
	rng     *xrand.RNG
	taskSeq int
	// tasksDone counts completed tasks per worker for the fatigue model,
	// indexed by worker ID (pool workers are densely numbered).
	tasksDone []int
}

// NewSimulator validates the config and prepares the worker pool.
func NewSimulator(cfg Config) *Simulator {
	if cfg.N <= 0 {
		panic(fmt.Sprintf("crowd: item space size %d must be positive", cfg.N))
	}
	if cfg.Truth == nil {
		panic("crowd: Config.Truth is required")
	}
	if cfg.ItemsPerTask <= 0 {
		panic(fmt.Sprintf("crowd: items per task %d must be positive", cfg.ItemsPerTask))
	}
	root := xrand.New(cfg.Seed).SplitNamed("crowd")
	poolSize := cfg.PoolSize
	if poolSize == 0 {
		poolSize = 40
	}
	s := &Simulator{
		cfg:       cfg,
		pool:      NewPool(poolSize, cfg.Profile, root.SplitNamed("pool")),
		rng:       root.SplitNamed("stream"),
		tasksDone: make([]int, poolSize),
	}
	if cfg.Sampler != nil {
		s.sampler = cfg.Sampler
	} else {
		s.sampler = Uniform{N: cfg.N, RNG: root.SplitNamed("sampler")}
	}
	return s
}

// nextDraws makes the per-task random draws in the canonical order (worker,
// item sample, one response per item). NextTask and AppendTask share it so
// both paths consume identical RNG streams.
func (s *Simulator) nextDraws(respond func(worker, item int, label votes.Label)) (worker int, items []int) {
	w := s.pool.Pick(s.rng)
	fatigue := 1.0
	if f := s.cfg.Profile.Fatigue; f > 0 {
		fatigue = 1 + f*float64(s.tasksDone[w.ID])
	}
	items = s.sampler.Draw(s.cfg.ItemsPerTask)
	for _, item := range items {
		fnD, fpD := fatigue, fatigue
		if s.cfg.Difficulty != nil {
			fnD *= s.cfg.Difficulty(item)
		}
		if s.cfg.FPDifficulty != nil {
			fpD *= s.cfg.FPDifficulty(item)
		}
		respond(w.ID, item, w.Respond(s.rng, s.cfg.Truth(item), fnD, fpD))
	}
	s.taskSeq++
	s.tasksDone[w.ID]++
	return w.ID, items
}

// NextTask draws a worker and a fresh item sample and synthesizes the
// worker's labels.
func (s *Simulator) NextTask() Task {
	labels := make([]votes.Label, 0, s.cfg.ItemsPerTask)
	worker, items := s.nextDraws(func(_, _ int, l votes.Label) {
		labels = append(labels, l)
	})
	return Task{Worker: worker, Items: items, Labels: labels}
}

// AppendTask synthesizes the next task directly as matrix entries appended
// to dst, returning the extended slice. It draws exactly the same random
// stream as NextTask but lets callers that only need the votes reuse one
// buffer across tasks.
func (s *Simulator) AppendTask(dst []votes.Vote) []votes.Vote {
	s.nextDraws(func(worker, item int, l votes.Label) {
		dst = append(dst, votes.Vote{Item: item, Worker: worker, Label: l})
	})
	return dst
}

// Tasks generates n tasks.
func (s *Simulator) Tasks(n int) []Task {
	out := make([]Task, n)
	for i := range out {
		out[i] = s.NextTask()
	}
	return out
}

// QuorumTasks builds the fixed-assignment workload behind the paper's
// Sample Clean Minimum: every item receives exactly votesPerItem votes,
// packed into tasks of itemsPerTask items, each task handled by one
// (independent) worker. The task count is votesPerItem·S/p, the SCM formula
// of Section 6.1.
func QuorumTasks(items []int, votesPerItem, itemsPerTask int, pool *Pool, truth func(int) bool, rng *xrand.RNG) []Task {
	if itemsPerTask <= 0 || votesPerItem <= 0 {
		panic("crowd: quorum parameters must be positive")
	}
	var tasks []Task
	workerSeq := 0
	for v := 0; v < votesPerItem; v++ {
		order := make([]int, len(items))
		copy(order, items)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += itemsPerTask {
			end := start + itemsPerTask
			if end > len(order) {
				end = len(order)
			}
			w := pool.Worker(workerSeq % pool.Size())
			workerSeq++
			chunk := order[start:end]
			labels := make([]votes.Label, len(chunk))
			for i, item := range chunk {
				labels[i] = w.Respond(rng, truth(item), 1, 1)
			}
			tasks = append(tasks, Task{Worker: w.ID, Items: append([]int(nil), chunk...), Labels: labels})
		}
	}
	return tasks
}

// SCMTasks returns the Sample Clean Minimum task count for a sample of size
// s with p items per task and the conventional three votes per item:
// 3·S/p (rounded up).
func SCMTasks(sampleSize, itemsPerTask int) int {
	if itemsPerTask <= 0 {
		return 0
	}
	return (3*sampleSize + itemsPerTask - 1) / itemsPerTask
}

// Oracle is the perfect labeler used by the extrapolation baseline: it
// returns the ground truth for every item in the sample.
type Oracle struct {
	Truth func(i int) bool
}

// CountErrors returns the number of true errors in the sample.
func (o Oracle) CountErrors(sample []int) int {
	n := 0
	for _, i := range sample {
		if o.Truth(i) {
			n++
		}
	}
	return n
}
