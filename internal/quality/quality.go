// Package quality implements the crowd quality-control techniques the paper
// builds on (§1.2): majority voting, Dawid–Skene-style expectation
// maximization for joint worker-skill/true-label inference, and
// inter-worker agreement statistics.
//
// These are not estimators of *remaining* errors — they refine the labels
// of the items the crowd has already seen. The paper's point is that even
// the best consensus over observed items says nothing about unobserved or
// under-voted ones; package estimator answers that question. The two
// compose: EM posteriors can replace raw majority as the "current state"
// that SWITCH corrects, and the agreement statistics quantify how noisy a
// crowd is, which the §6 experiments vary explicitly.
package quality

import (
	"fmt"
	"math"

	"dqm/internal/votes"
)

// WorkerSkill is a per-worker binary confusion model: the probability of
// voting dirty given the item's (latent) true state.
type WorkerSkill struct {
	Worker int
	// Sensitivity = P(vote dirty | truly dirty); 1 − FN rate.
	Sensitivity float64
	// Specificity = P(vote clean | truly clean); 1 − FP rate.
	Specificity float64
	// Votes is how many votes the worker contributed.
	Votes int
}

// EMResult is the output of expectation maximization.
type EMResult struct {
	// Posterior[i] = P(item i dirty | votes, skills). Items with no votes
	// keep the prior.
	Posterior []float64
	// Skills holds the converged per-worker confusion estimates.
	Skills map[int]WorkerSkill
	// Prior is the converged class prior P(dirty).
	Prior float64
	// Iterations actually run before convergence (or the cap).
	Iterations int
}

// Labels thresholds the posteriors at 0.5 into a consensus vector.
func (r *EMResult) Labels() []bool {
	out := make([]bool, len(r.Posterior))
	for i, p := range r.Posterior {
		out[i] = p > 0.5
	}
	return out
}

// EMConfig tunes the EM loop. Zero values select sensible defaults.
type EMConfig struct {
	// MaxIterations caps the EM loop (default 50).
	MaxIterations int
	// Tolerance stops the loop when the max posterior change falls below it
	// (default 1e-6).
	Tolerance float64
	// Smoothing is the pseudo-count regularizer for skill estimates
	// (default 1, Laplace); prevents degenerate 0/1 skills for workers with
	// few votes.
	Smoothing float64
}

func (c *EMConfig) setDefaults() {
	if c.MaxIterations == 0 {
		c.MaxIterations = 50
	}
	if c.Tolerance == 0 {
		c.Tolerance = 1e-6
	}
	if c.Smoothing == 0 {
		c.Smoothing = 1
	}
}

// EM runs Dawid–Skene expectation maximization over the votes recorded in
// the matrix, which must be built with votes.WithHistory: worker skills are
// fitted from who voted what, which the per-item counts do not keep.
// Initialization is the majority vote, the standard warm start.
func EM(m *votes.Matrix, cfg EMConfig) (*EMResult, error) {
	cfg.setDefaults()
	n := m.NumItems()
	if n == 0 {
		return &EMResult{Posterior: nil, Skills: map[int]WorkerSkill{}, Prior: 0.5}, nil
	}
	if m.TotalVotes() > 0 && !m.RetainsHistory() {
		return nil, fmt.Errorf("quality: EM requires vote history (build the matrix with votes.WithHistory)")
	}

	// Initialize posteriors from the (soft) majority.
	post := make([]float64, n)
	for i := 0; i < n; i++ {
		pos, tot := m.Pos(i), m.Seen(i)
		if tot == 0 {
			post[i] = 0.5
			continue
		}
		// Soft majority with add-one smoothing.
		post[i] = (float64(pos) + 1) / (float64(tot) + 2)
	}

	skills := make(map[int]WorkerSkill)
	prior := 0.5
	it := 0
	for ; it < cfg.MaxIterations; it++ {
		// M step: per-worker confusion from current posteriors.
		type acc struct {
			dirtyHit, dirtyTot float64 // Σ post on items the worker marked dirty / saw
			cleanHit, cleanTot float64
			votes              int
		}
		accs := make(map[int]*acc)
		var priorSum float64
		var priorCnt int
		for i := 0; i < n; i++ {
			h := m.History(i)
			if len(h) == 0 {
				continue
			}
			priorSum += post[i]
			priorCnt++
			for _, v := range h {
				a := accs[v.Worker]
				if a == nil {
					a = &acc{}
					accs[v.Worker] = a
				}
				a.votes++
				a.dirtyTot += post[i]
				a.cleanTot += 1 - post[i]
				if v.Label == votes.Dirty {
					a.dirtyHit += post[i]
				} else {
					a.cleanHit += 1 - post[i]
				}
			}
		}
		if priorCnt > 0 {
			prior = priorSum / float64(priorCnt)
		}
		prior = clampProb(prior)
		s := cfg.Smoothing
		for w, a := range accs {
			skills[w] = WorkerSkill{
				Worker:      w,
				Sensitivity: clampProb((a.dirtyHit + s) / (a.dirtyTot + 2*s)),
				Specificity: clampProb((a.cleanHit + s) / (a.cleanTot + 2*s)),
				Votes:       a.votes,
			}
		}

		// E step: item posteriors from skills.
		maxDelta := 0.0
		for i := 0; i < n; i++ {
			h := m.History(i)
			if len(h) == 0 {
				continue
			}
			logDirty := math.Log(prior)
			logClean := math.Log(1 - prior)
			for _, v := range h {
				sk := skills[v.Worker]
				if v.Label == votes.Dirty {
					logDirty += math.Log(sk.Sensitivity)
					logClean += math.Log(1 - sk.Specificity)
				} else {
					logDirty += math.Log(1 - sk.Sensitivity)
					logClean += math.Log(sk.Specificity)
				}
			}
			p := 1 / (1 + math.Exp(logClean-logDirty))
			if d := math.Abs(p - post[i]); d > maxDelta {
				maxDelta = d
			}
			post[i] = p
		}
		if maxDelta < cfg.Tolerance {
			it++
			break
		}
	}

	return &EMResult{Posterior: post, Skills: skills, Prior: prior, Iterations: it}, nil
}

func clampProb(p float64) float64 {
	const eps = 1e-6
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}

// FleissKappa computes Fleiss' kappa over the items with at least two
// votes, treating each vote as coming from an interchangeable rater — the
// appropriate form for crowdsourcing where item-rater assignment is random.
// Returns 0 when undefined (no multi-vote items, or no variance).
func FleissKappa(m *votes.Matrix) float64 {
	var pBarSum float64
	var items int
	var dirtyMass, totalMass float64
	for i := 0; i < m.NumItems(); i++ {
		pos, tot := float64(m.Pos(i)), float64(m.Seen(i))
		if tot < 2 {
			continue
		}
		neg := tot - pos
		pBarSum += (pos*(pos-1) + neg*(neg-1)) / (tot * (tot - 1))
		dirtyMass += pos
		totalMass += tot
		items++
	}
	if items == 0 || totalMass == 0 {
		return 0
	}
	pBar := pBarSum / float64(items)
	pDirty := dirtyMass / totalMass
	pe := pDirty*pDirty + (1-pDirty)*(1-pDirty)
	if pe >= 1 {
		return 0
	}
	return (pBar - pe) / (1 - pe)
}
