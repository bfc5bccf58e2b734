package pipeline

import (
	"testing"

	"dqm/internal/dataset"
	"dqm/internal/similarity"
)

func TestRestaurantCandidatesClassifiesEveryDuplicate(t *testing.T) {
	data := dataset.GenerateRestaurants(dataset.RestaurantConfig{
		Records: 120, Duplicates: 20, Seed: 5,
	})
	c := RestaurantCandidates(data, 0.5, 0.9)

	// Every planted duplicate pair is accounted for exactly once:
	// in-window, auto-merged above, or lost below.
	total := c.Truth.NumDirty() + c.AutoDirtyTrue + c.MissedBelow
	if total != len(data.DuplicatePairs) {
		t.Fatalf("classified %d duplicates, planted %d", total, len(data.DuplicatePairs))
	}

	// Window invariant: every candidate's similarity is inside [α, β].
	keys := make([]string, len(data.Records))
	for i, r := range data.Records {
		keys[i] = r.Key()
	}
	for i, p := range c.Pairs {
		s := similarity.TokenSortedEditSimilarity(keys[p.A], keys[p.B])
		if s < 0.5 || s > 0.9 {
			t.Fatalf("candidate %d (%v) similarity %v outside window", i, p, s)
		}
	}

	// The ground truth covers exactly the candidate set.
	if c.Truth.N() != len(c.Pairs) {
		t.Fatalf("truth over %d items, %d pairs", c.Truth.N(), len(c.Pairs))
	}
}

func TestRestaurantCandidatesPopulation(t *testing.T) {
	data := dataset.GenerateRestaurants(dataset.RestaurantConfig{
		Records: 80, Duplicates: 10, Seed: 6,
	})
	c := RestaurantCandidates(data, 0.5, 0.9)
	pop := c.Population("test")
	if pop.N() != len(c.Pairs) || pop.Describe != "test" {
		t.Fatalf("population %d/%q", pop.N(), pop.Describe)
	}
}

func TestProductCandidatesClassifiesEveryMatch(t *testing.T) {
	data := dataset.GenerateProducts(dataset.ProductConfig{
		AmazonRecords: 300, GoogleRecords: 200, Matches: 60, Seed: 7,
	})
	c := ProductCandidates(data, 0.4, 0.7)
	total := c.Truth.NumDirty() + c.AutoDirtyTrue + c.MissedBelow
	if total != len(data.MatchPairs) {
		t.Fatalf("classified %d matches, planted %d", total, len(data.MatchPairs))
	}
	// Candidates are cross-catalog pairs in the offset id space.
	for _, p := range c.Pairs {
		if p.A < 0 || p.A >= len(data.Amazon) {
			t.Fatalf("left id out of range: %v", p)
		}
		if p.B < len(data.Amazon) || p.B >= len(data.Amazon)+len(data.Google) {
			t.Fatalf("right id out of range: %v", p)
		}
	}
	// Blocking must keep the crowd workload far below the cross product.
	if len(c.Pairs) >= len(data.Amazon)*len(data.Google)/10 {
		t.Fatalf("blocking ineffective: %d candidates", len(c.Pairs))
	}
}

func TestProductCandidatesFindMostMatches(t *testing.T) {
	data := dataset.GenerateProducts(dataset.ProductConfig{
		AmazonRecords: 300, GoogleRecords: 200, Matches: 60, Seed: 8,
	})
	c := ProductCandidates(data, 0.4, 0.7)
	found := c.Truth.NumDirty() + c.AutoDirtyTrue
	if found < 40 { // at least 2/3 of the 60 matches survive stage 1
		t.Fatalf("pipeline found only %d/60 matches", found)
	}
}
