package dataset

import (
	"fmt"

	"dqm/internal/xrand"
)

// Population is the abstract item space every estimation experiment runs
// over: N items of which some known subset is dirty. For entity resolution
// the items are candidate pairs; for the address dataset they are records.
// The figure-reproduction experiments construct Populations directly with
// the paper's published counts, since the estimators see only how many items
// there are and the votes on them, not the records behind them; the
// end-to-end examples derive them from generated datasets via the entity and
// heuristic packages.
type Population struct {
	Truth *GroundTruth
	// Describe labels the population in reports, e.g. "restaurant candidates".
	Describe string
}

// NewPlantedPopulation builds a population of n items with numDirty dirty
// items placed uniformly at random under the seed.
func NewPlantedPopulation(n, numDirty int, seed uint64, describe string) *Population {
	if numDirty > n {
		panic(fmt.Sprintf("dataset: %d dirty items exceed population %d", numDirty, n))
	}
	r := xrand.New(seed).SplitNamed("planted:" + describe)
	dirty := r.SampleWithoutReplacement(n, numDirty)
	return &Population{
		Truth:    NewGroundTruth(n, dirty),
		Describe: describe,
	}
}

// N returns the population size.
func (p *Population) N() int { return p.Truth.N() }

// NumDirty returns the true error count |R_dirty|.
func (p *Population) NumDirty() int { return p.Truth.NumDirty() }

// Paper-published candidate-set shapes (§6.1). These are the populations the
// real-data figures operate on.

// RestaurantCandidates returns the restaurant candidate-pair population:
// 1264 pairs in the similarity window, 12 true duplicates.
func RestaurantCandidates(seed uint64) *Population {
	return NewPlantedPopulation(1264, 12, seed, "restaurant candidates")
}

// ProductCandidates returns the product candidate-pair population:
// 13022 pairs in the similarity window, 607 true duplicates.
func ProductCandidates(seed uint64) *Population {
	return NewPlantedPopulation(13022, 607, seed, "product candidates")
}

// AddressPopulation returns the address-record population: 1000 records, 90
// malformed.
func AddressPopulation(seed uint64) *Population {
	return NewPlantedPopulation(1000, 90, seed, "address records")
}

// SimulationPopulation returns the §6.2 synthetic population: 1000 candidate
// pairs with 100 true duplicates.
func SimulationPopulation(seed uint64) *Population {
	return NewPlantedPopulation(1000, 100, seed, "simulated candidates")
}
