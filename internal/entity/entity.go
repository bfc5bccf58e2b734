// Package entity implements the entity-resolution substrate of Section 2.1:
// the pair space R = Q×Q over a relation Q, canonical unordered pairs (the
// paper removes commutative relations to avoid double-counting), and
// blocking-based candidate generation across two catalogs so that the
// product-scale pair space (1363×2336 ≈ 3.2M pairs) never has to be
// materialized with full similarity evaluation.
package entity

import (
	"fmt"
	"sort"

	"dqm/internal/similarity"
)

// Pair is a canonical unordered record pair: A < B always holds.
type Pair struct {
	A, B int
}

// NewPair canonicalizes (a, b); it panics on a == b, which is not a valid
// entity-resolution comparison.
func NewPair(a, b int) Pair {
	if a == b {
		panic(fmt.Sprintf("entity: self-pair (%d,%d)", a, b))
	}
	if a > b {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// AllPairs enumerates every canonical pair over n records in lexicographic
// order, calling fn for each; fn returning false stops the enumeration.
func AllPairs(n int, fn func(Pair) bool) {
	for a := 0; a < n-1; a++ {
		for b := a + 1; b < n; b++ {
			if !fn(Pair{A: a, B: b}) {
				return
			}
		}
	}
}

// Blocker builds candidate pairs via token blocking: records sharing at
// least one (sufficiently rare) token are compared; everything else is
// pruned without similarity evaluation. This is how the product catalogs
// stay tractable.
type Blocker struct {
	// MaxBlockSize skips tokens shared by more records than this (stop-word
	// style tokens generate quadratic garbage). 0 means 64.
	MaxBlockSize int
}

// BipartiteCandidatePairs blocks across two key sets (e.g. Amazon × Google):
// only cross-catalog pairs are produced. Pair.A indexes left, Pair.B indexes
// right offset by len(left), keeping a single id space.
func (b Blocker) BipartiteCandidatePairs(left, right []string) []Pair {
	maxBlock := b.MaxBlockSize
	if maxBlock == 0 {
		maxBlock = 64
	}
	type blockSides struct{ l, r []int }
	blocks := make(map[string]*blockSides)
	index := func(keys []string, side func(*blockSides) *[]int) {
		for i, k := range keys {
			seen := make(map[string]struct{})
			for _, tok := range similarity.Tokenize(k) {
				if _, dup := seen[tok]; dup {
					continue
				}
				seen[tok] = struct{}{}
				bs := blocks[tok]
				if bs == nil {
					bs = &blockSides{}
					blocks[tok] = bs
				}
				s := side(bs)
				*s = append(*s, i)
			}
		}
	}
	index(left, func(bs *blockSides) *[]int { return &bs.l })
	index(right, func(bs *blockSides) *[]int { return &bs.r })

	offset := len(left)
	pairSet := make(map[Pair]struct{})
	for _, bs := range blocks {
		if len(bs.l) == 0 || len(bs.r) == 0 || len(bs.l)*len(bs.r) > maxBlock*maxBlock {
			continue
		}
		for _, li := range bs.l {
			for _, ri := range bs.r {
				pairSet[Pair{A: li, B: offset + ri}] = struct{}{}
			}
		}
	}
	out := make([]Pair, 0, len(pairSet))
	for p := range pairSet {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}
