// Package dataset synthesizes the three datasets of the paper's evaluation
// with planted ground truth:
//
//   - Restaurant: 858 restaurant records where some rows duplicate the same
//     real-world restaurant under perturbed names/addresses (§6.1.1);
//   - Product: an Amazon catalog (2336 rows) and a Google catalog (1363
//     rows) sharing 607 matched products under vendor-specific naming
//     (§6.1.2);
//   - Address: 1000 Portland, OR home addresses of which 90 are malformed
//     following the error taxonomy of Figure 1 (§6.1.3).
//
// The paper used the published real datasets plus Amazon Mechanical Turk
// labels. Neither is available offline, so the generators plant the same
// structure (sizes, error counts, error character) and the crowd package
// synthesizes worker responses. The estimators see only the vote stream, so
// this preserves what they are sensitive to: the population, the number of
// errors and the balance of false positives and false negatives among the
// votes (internal/experiment/profiles.go calibrates the last per dataset).
package dataset

import (
	"fmt"
	"sort"
)

// GroundTruth records which items of a population are truly dirty. For
// entity resolution an "item" is a candidate pair; for the address dataset
// it is a record.
type GroundTruth struct {
	n     int
	dirty map[int]struct{}
}

// NewGroundTruth creates a ground truth over n items with the given dirty
// item indices. Out-of-range indices panic: ground truths are constructed by
// generators that own the index space.
func NewGroundTruth(n int, dirty []int) *GroundTruth {
	gt := &GroundTruth{n: n, dirty: make(map[int]struct{}, len(dirty))}
	for _, i := range dirty {
		if i < 0 || i >= n {
			panic(fmt.Sprintf("dataset: dirty index %d out of range [0,%d)", i, n))
		}
		gt.dirty[i] = struct{}{}
	}
	return gt
}

// N returns the population size.
func (g *GroundTruth) N() int { return g.n }

// NumDirty returns |R_dirty|.
func (g *GroundTruth) NumDirty() int { return len(g.dirty) }

// IsDirty reports whether item i is truly erroneous.
func (g *GroundTruth) IsDirty(i int) bool {
	_, ok := g.dirty[i]
	return ok
}

// DirtyItems returns the sorted dirty indices.
func (g *GroundTruth) DirtyItems() []int {
	out := make([]int, 0, len(g.dirty))
	for i := range g.dirty {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// CountErrors returns how many of the marked items are truly dirty and how
// many are false positives, a convenience for oracle-style evaluation.
func (g *GroundTruth) CountErrors(marked []int) (truePos, falsePos int) {
	for _, i := range marked {
		if g.IsDirty(i) {
			truePos++
		} else {
			falsePos++
		}
	}
	return truePos, falsePos
}
