// Package xrand provides the deterministic randomness substrate used by every
// simulation in this repository.
//
// All experiments in the paper are averaged over r random permutations of the
// task stream, and every worker decision is a Bernoulli draw. To make each
// figure reproducible bit-for-bit, the package wraps math/rand/v2's PCG
// generator behind a splittable source: a parent RNG can derive independent
// child streams (one per worker, one per permutation, ...) so that adding a
// new consumer of randomness does not perturb unrelated draws.
package xrand

import (
	"math/rand/v2"
)

// RNG is a deterministic pseudo-random generator with helpers for the
// sampling patterns used by the crowd simulator and experiment harness.
type RNG struct {
	src *rand.Rand
	pcg *rand.PCG
	// seed material retained so children can be derived deterministically.
	hi, lo uint64
	splits uint64
}

// New returns an RNG seeded from a single 64-bit seed.
func New(seed uint64) *RNG {
	return newFrom(seed, 0x9e3779b97f4a7c15^seed)
}

func newFrom(hi, lo uint64) *RNG {
	pcg := rand.NewPCG(hi, lo)
	return &RNG{
		src: rand.New(pcg),
		pcg: pcg,
		hi:  hi,
		lo:  lo,
	}
}

// Split derives an independent child generator. Children derived from the
// same parent in the same order are identical across runs; draws from the
// parent do not affect children and vice versa.
func (r *RNG) Split() *RNG {
	r.splits++
	return newFrom(r.childSeed(r.splits))
}

// childSeed derives the seed pair of the k-th sequential child (k ≥ 1) by
// SplitMix64-style mixing of the parent's seed with the split counter. Shared
// by Split, SplitAt and ReseedAt so indexed and sequential derivation agree.
func (r *RNG) childSeed(k uint64) (hi, lo uint64) {
	z := r.lo + 0x9e3779b97f4a7c15*k
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return r.hi ^ z, z
}

// SplitAt derives the child stream with index i (0-based) without advancing
// the parent's split counter: SplitAt(i) on a fresh parent equals its
// (i+1)-th sequential Split. Because it only reads immutable seed material,
// concurrent SplitAt calls on one parent are safe — the addressing mode a
// worker pool needs to make "replicate i" a pure function of (seed, i),
// independent of how replicates land on workers.
func (r *RNG) SplitAt(i uint64) *RNG {
	return newFrom(r.childSeed(i + 1))
}

// ReseedAt repositions the receiver onto parent's child stream i, reusing the
// receiver's allocations. It is SplitAt for hot loops: a worker derives one
// scratch RNG and reseeds it per replicate instead of allocating b children.
func (r *RNG) ReseedAt(parent *RNG, i uint64) {
	hi, lo := parent.childSeed(i + 1)
	r.hi, r.lo, r.splits = hi, lo, 0
	r.pcg.Seed(hi, lo)
}

// SplitNamed derives a child keyed by a label, so consumers can be added or
// reordered without perturbing each other.
func (r *RNG) SplitNamed(label string) *RNG {
	var h uint64 = 1469598103934665603 // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	z := r.lo ^ h
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return newFrom(r.hi^h, z)
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 { return r.src.Uint64() }

// IntN returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// NormFloat64 returns a standard normal deviate.
func (r *RNG) NormFloat64() float64 { return r.src.NormFloat64() }

// Bernoulli returns true with probability p. Values of p outside [0,1] are
// clamped.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.src.Float64() < p
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle pseudo-randomizes the order of elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// SampleWithoutReplacement returns k distinct values drawn uniformly from
// [0, n). If k >= n it returns a permutation of all n values. The result is
// in random order.
func (r *RNG) SampleWithoutReplacement(n, k int) []int {
	if n <= 0 || k <= 0 {
		return nil
	}
	if k >= n {
		return r.Perm(n)
	}
	// For small k relative to n, Floyd's algorithm avoids allocating O(n).
	if k < n/16 {
		return r.sampleFloyd(n, k)
	}
	p := r.Perm(n)
	return p[:k]
}

// sampleFloyd implements Robert Floyd's sampling algorithm: k distinct
// integers in [0, n) using O(k) space.
func (r *RNG) sampleFloyd(n, k int) []int {
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.IntN(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	// Floyd's output has a mild ordering bias; shuffle to restore exchangeability.
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// SampleSlice returns k distinct elements drawn uniformly from items.
func SampleSlice[T any](r *RNG, items []T, k int) []T {
	idx := r.SampleWithoutReplacement(len(items), k)
	out := make([]T, len(idx))
	for i, j := range idx {
		out[i] = items[j]
	}
	return out
}

// Choice returns a uniformly chosen element of items. It panics on an empty
// slice.
func Choice[T any](r *RNG, items []T) T {
	return items[r.IntN(len(items))]
}

// TruncNorm returns a normal deviate with the given mean and standard
// deviation truncated to [lo, hi] by resampling (falling back to clamping
// after a bounded number of attempts).
func (r *RNG) TruncNorm(mean, std, lo, hi float64) float64 {
	if std <= 0 {
		return clamp(mean, lo, hi)
	}
	for i := 0; i < 64; i++ {
		v := mean + std*r.NormFloat64()
		if v >= lo && v <= hi {
			return v
		}
	}
	return clamp(mean+std*r.NormFloat64(), lo, hi)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
