// Package algoclean implements the paper's §8 extension: instead of
// semi-independent crowd workers, run several semi-independent *automatic*
// cleaning algorithms and estimate how many errors remain after all of them
// have passed over the data.
//
// Each algorithm is a deterministic Judge over the item space. Judges make
// systematic (not stochastic) mistakes — an over-strict rule produces false
// positives on every record it misreads, an incomplete rule set produces
// false negatives on every record outside its coverage. The committee's
// judgments are packaged as ordinary crowd tasks (one "worker" per judge),
// so the whole estimator stack applies unchanged: the diminishing return of
// adding one more cleaning algorithm is exactly the diminishing return of
// adding one more worker.
package algoclean

import (
	"fmt"

	"dqm/internal/crowd"
	"dqm/internal/dataset"
	"dqm/internal/rules"
	"dqm/internal/votes"
	"dqm/internal/xrand"
)

// Judge is one deterministic cleaning algorithm: it inspects item i and
// declares it dirty or clean.
type Judge interface {
	Name() string
	Judge(item int) votes.Label
}

type funcJudge struct {
	name string
	fn   func(int) votes.Label
}

func (j funcJudge) Name() string               { return j.name }
func (j funcJudge) Judge(item int) votes.Label { return j.fn(item) }

// New wraps a function as a Judge.
func New(name string, fn func(item int) votes.Label) Judge {
	return funcJudge{name: name, fn: fn}
}

// RuleJudge builds a Judge from a rule subset over address records: item i
// is dirty when any of the rules fires on records[i]. Different subsets
// yield semi-independent detectors with different coverage — the
// algorithmic analogue of workers with different internal rules (§2.1).
func RuleJudge(name string, records []dataset.Address, rs ...rules.Rule) Judge {
	det := rules.NewDetector(rs...)
	return New(name, func(item int) votes.Label {
		if det.Dirty(records[item]) {
			return votes.Dirty
		}
		return votes.Clean
	})
}

// Committee is an ordered set of cleaning algorithms.
type Committee struct {
	Judges []Judge
}

// NewCommittee assembles a committee; it panics on an empty judge list.
func NewCommittee(judges ...Judge) *Committee {
	if len(judges) == 0 {
		panic("algoclean: empty committee")
	}
	return &Committee{Judges: judges}
}

// Size returns the number of algorithms.
func (c *Committee) Size() int { return len(c.Judges) }

// WorkerID returns the pseudo-worker id used for judge j in emitted tasks.
func (c *Committee) WorkerID(j int) int { return j }

// JudgeAll runs judge j over the whole item space and returns the flagged
// item ids.
func (c *Committee) JudgeAll(j, n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		if c.Judges[j].Judge(i) == votes.Dirty {
			out = append(out, i)
		}
	}
	return out
}

// Tasks converts one full pass of every judge over n items into a stream of
// crowd tasks of itemsPerTask items each. Each judge's pass is chunked over
// a shuffled copy of the item space and the resulting tasks are interleaved
// at random, mirroring how a pipeline would schedule algorithm runs. The
// rng only permutes order; judgments themselves are deterministic.
func (c *Committee) Tasks(n, itemsPerTask int, rng *xrand.RNG) []crowd.Task {
	if n <= 0 || itemsPerTask <= 0 {
		panic(fmt.Sprintf("algoclean: invalid task shape n=%d items/task=%d", n, itemsPerTask))
	}
	var tasks []crowd.Task
	for j, judge := range c.Judges {
		order := rng.Perm(n)
		for start := 0; start < n; start += itemsPerTask {
			end := start + itemsPerTask
			if end > n {
				end = n
			}
			chunk := order[start:end]
			labels := make([]votes.Label, len(chunk))
			for k, item := range chunk {
				labels[k] = judge.Judge(item)
			}
			tasks = append(tasks, crowd.Task{
				Worker: c.WorkerID(j),
				Items:  append([]int(nil), chunk...),
				Labels: labels,
			})
		}
	}
	rng.Shuffle(len(tasks), func(a, b int) { tasks[a], tasks[b] = tasks[b], tasks[a] })
	return tasks
}

// Consensus runs every judge over the item space and returns the strict
// majority verdicts — the "infinite resources" endpoint for this committee.
// Unlike crowds, a committee is finite: what the majority of algorithms
// cannot see stays invisible, which is why the remaining-error estimate
// matters (it quantifies how far the current consensus is from where more
// algorithms would take it).
func (c *Committee) Consensus(n int) []bool {
	counts := make([]int, n)
	for j := range c.Judges {
		for _, item := range c.JudgeAll(j, n) {
			counts[item]++
		}
	}
	out := make([]bool, n)
	for i, k := range counts {
		out[i] = 2*k > len(c.Judges)
	}
	return out
}
