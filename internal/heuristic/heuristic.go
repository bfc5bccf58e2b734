// Package heuristic implements Section 5's prioritization model: a
// heuristic's window R_H, the ambiguous items routed to the crowd (a
// confidence function H and the (α, β) window over it; internal/pipeline
// applies one to candidate pairs), and the ε-randomized sampler that hedges
// against imperfect heuristics by occasionally showing workers items from
// outside the window.
package heuristic

import (
	"fmt"

	"dqm/internal/xrand"
)

// Synthetic builds the heuristic abstraction the Figure 8 sensitivity sweep
// needs: a candidate set R_H that captures a controllable fraction of the
// true errors. A heuristic with error rate e misses a fraction e of the true
// errors (they land in R_H^c) and correspondingly admits clean items into
// R_H to keep |R_H| fixed.
type Synthetic struct {
	// RH and RHC are the window and its complement, as item id slices.
	RH, RHC []int
}

// NewSynthetic plants a heuristic over n items. dirty lists the true error
// ids; windowSize is |R_H|; errRate e ∈ [0,1] is the fraction of true errors
// the heuristic fails to route into the window.
func NewSynthetic(n int, dirty []int, windowSize int, errRate float64, r *xrand.RNG) *Synthetic {
	if windowSize <= 0 || windowSize > n {
		panic(fmt.Sprintf("heuristic: window size %d out of range (0,%d]", windowSize, n))
	}
	if errRate < 0 || errRate > 1 {
		panic(fmt.Sprintf("heuristic: error rate %v outside [0,1]", errRate))
	}
	isDirty := make(map[int]struct{}, len(dirty))
	for _, d := range dirty {
		isDirty[d] = struct{}{}
	}
	// Choose which true errors the heuristic catches.
	nCaught := int(float64(len(dirty))*(1-errRate) + 0.5)
	if nCaught > windowSize {
		nCaught = windowSize
	}
	perm := r.Perm(len(dirty))
	caught := make(map[int]struct{}, nCaught)
	for _, pi := range perm[:nCaught] {
		caught[dirty[pi]] = struct{}{}
	}
	// Fill the remainder of the window with clean items.
	var cleanIDs []int
	for i := 0; i < n; i++ {
		if _, d := isDirty[i]; !d {
			cleanIDs = append(cleanIDs, i)
		}
	}
	need := windowSize - len(caught)
	if need > len(cleanIDs) {
		need = len(cleanIDs)
	}
	fill := xrand.SampleSlice(r, cleanIDs, need)

	inRH := caught // the window: the caught errors plus the clean fill
	for _, id := range fill {
		inRH[id] = struct{}{}
	}
	s := &Synthetic{}
	for i := 0; i < n; i++ {
		if _, ok := inRH[i]; ok {
			s.RH = append(s.RH, i)
		} else {
			s.RHC = append(s.RHC, i)
		}
	}
	return s
}

// EpsilonSampler implements the randomized routing of Section 5.3: each
// drawn item comes from R_H with probability 1−ε and from R_H^c with
// probability ε. ε = 0 is the pure-prioritization (perfect-heuristic) case;
// ε = |R_H|/|R| recovers uniform sampling over R.
type EpsilonSampler struct {
	rh, rhc []int
	eps     float64
	rng     *xrand.RNG
}

// NewEpsilonSampler builds a sampler over the window and its complement.
// Either side may be empty, in which case all draws come from the other.
func NewEpsilonSampler(rh, rhc []int, eps float64, rng *xrand.RNG) *EpsilonSampler {
	if eps < 0 || eps > 1 {
		panic(fmt.Sprintf("heuristic: epsilon %v outside [0,1]", eps))
	}
	if len(rh) == 0 && len(rhc) == 0 {
		panic("heuristic: sampler over empty item space")
	}
	return &EpsilonSampler{rh: rh, rhc: rhc, eps: eps, rng: rng}
}

// Draw samples k distinct items for one task: the task's quota is split
// between R_H and R_H^c by ε, then each side is sampled without
// replacement.
func (s *EpsilonSampler) Draw(k int) []int {
	if k <= 0 {
		return nil
	}
	// Binomially split the quota so small tasks still route ε mass.
	fromC := 0
	for i := 0; i < k; i++ {
		if s.rng.Bernoulli(s.eps) {
			fromC++
		}
	}
	if fromC > len(s.rhc) {
		fromC = len(s.rhc)
	}
	fromH := k - fromC
	if fromH > len(s.rh) {
		fromH = len(s.rh)
	}
	out := make([]int, 0, fromH+fromC)
	for _, i := range s.rng.SampleWithoutReplacement(len(s.rh), fromH) {
		out = append(out, s.rh[i])
	}
	for _, i := range s.rng.SampleWithoutReplacement(len(s.rhc), fromC) {
		out = append(out, s.rhc[i])
	}
	s.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
