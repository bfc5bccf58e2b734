// Package pipeline wires the substrates into the end-to-end propose–verify
// flow of Section 5: generate (or accept) a dataset, score record pairs with
// a similarity heuristic, window the scores into auto-clean / candidate /
// auto-dirty regions, and expose the candidate set as the item space for
// crowd verification and estimation.
package pipeline

import (
	"dqm/internal/dataset"
	"dqm/internal/entity"
	"dqm/internal/similarity"
)

// CandidateSpace is the outcome of the algorithmic first stage: the item
// space handed to the crowd. Item i of the estimation problem is
// Pairs[i]; Truth marks which candidate pairs are true duplicates.
type CandidateSpace struct {
	// Pairs are the candidate record pairs (ids into the source dataset;
	// for bipartite catalogs the right side is offset by the left size).
	Pairs []entity.Pair
	// Truth marks true duplicates among the candidates.
	Truth *dataset.GroundTruth
	// AutoDirty counts pairs above the window (auto-merged), of which
	// AutoDirtyTrue are actually duplicates — nonzero only for imperfect
	// heuristics.
	AutoDirty, AutoDirtyTrue int
	// MissedBelow counts true duplicates the heuristic dropped below the
	// window (the heuristic's false negatives).
	MissedBelow int
}

// Population converts the candidate space into the estimation population.
func (c *CandidateSpace) Population(describe string) *dataset.Population {
	return &dataset.Population{Truth: c.Truth, Describe: describe}
}

// classifyPair scores one candidate pair against the (alpha, beta) window
// and files it into the space: below-window dups count as MissedBelow,
// above-window pairs auto-merge, the rest become crowd candidates. Both
// dataset scans share it so the prefilter and the window accounting cannot
// diverge. dirty accumulates the candidate-local indices of true duplicates.
func classifyPair(out *CandidateSpace, dirty []int, p entity.Pair,
	profA, profB similarity.CharProfile, keyA, keyB string, dup bool, alpha, beta float64) []int {
	// Two-stage prefilter: the O(alphabet) histogram bound discards the
	// bulk of pairs, and the bounded kernel abandons the rest of the
	// clearly-dissimilar ones (length gap, hopeless DP rows) without
	// finishing the DP.
	s, inWindow := 0.0, false
	if profA.CouldMatch(profB, alpha) {
		s, inWindow = similarity.EditSimilarityAtLeast(keyA, keyB, alpha)
	}
	switch {
	case !inWindow || s < alpha:
		if dup {
			out.MissedBelow++
		}
	case s > beta:
		out.AutoDirty++
		if dup {
			out.AutoDirtyTrue++
		}
	default:
		if dup {
			dirty = append(dirty, len(out.Pairs))
		}
		out.Pairs = append(out.Pairs, p)
	}
	return dirty
}

// RestaurantCandidates runs the CrowdER-style first stage on a generated
// restaurant dataset: normalized edit-distance similarity over all record
// pairs, with the paper's window (0.5, 0.9) — pairs above 0.9 are obvious
// matches, below 0.5 obvious non-matches.
func RestaurantCandidates(data *dataset.RestaurantData, alpha, beta float64) *CandidateSpace {
	// Token-sort normalization is O(|key| log |key|) per record; hoisting it
	// out of the O(n²) pair loop is the difference between tokenizing n times
	// and n² times.
	keys := make([]string, len(data.Records))
	profiles := make([]similarity.CharProfile, len(data.Records))
	for i, r := range data.Records {
		keys[i] = similarity.TokenSortKey(r.Key())
		profiles[i] = similarity.NewCharProfile(keys[i])
	}
	isDup := pairSet(data.DuplicatePairs)
	var out CandidateSpace
	var dirty []int
	entity.AllPairs(len(keys), func(p entity.Pair) bool {
		dirty = classifyPair(&out, dirty, p,
			profiles[p.A], profiles[p.B], keys[p.A], keys[p.B], isDup[p], alpha, beta)
		return true
	})
	out.Truth = dataset.NewGroundTruth(len(out.Pairs), dirty)
	return &out
}

// ProductCandidates runs the first stage on the bipartite product catalogs
// with token blocking (the full 3.2M-pair cross product is never scored) and
// the paper's window (0.4, 0.7).
func ProductCandidates(data *dataset.ProductData, alpha, beta float64) *CandidateSpace {
	// Blocking tokenizes the raw keys; the window scan scores token-sorted
	// normalizations. Both are precomputed once per record.
	left := make([]string, len(data.Amazon))
	leftSorted := make([]string, len(data.Amazon))
	for i, p := range data.Amazon {
		left[i] = p.Key()
		leftSorted[i] = similarity.TokenSortKey(left[i])
	}
	right := make([]string, len(data.Google))
	rightSorted := make([]string, len(data.Google))
	for i, p := range data.Google {
		right[i] = p.Key()
		rightSorted[i] = similarity.TokenSortKey(right[i])
	}
	isDup := make(map[entity.Pair]bool, len(data.MatchPairs))
	for _, mp := range data.MatchPairs {
		isDup[entity.Pair{A: mp[0], B: len(left) + mp[1]}] = true
	}

	blocker := entity.Blocker{MaxBlockSize: 128}
	cands := blocker.BipartiteCandidatePairs(left, right)

	// True matches missed by blocking count as heuristic false negatives.
	inCands := make(map[entity.Pair]bool, len(cands))
	for _, p := range cands {
		inCands[p] = true
	}

	var out CandidateSpace
	var dirty []int
	leftProf := make([]similarity.CharProfile, len(leftSorted))
	for i, k := range leftSorted {
		leftProf[i] = similarity.NewCharProfile(k)
	}
	rightProf := make([]similarity.CharProfile, len(rightSorted))
	for i, k := range rightSorted {
		rightProf[i] = similarity.NewCharProfile(k)
	}
	for _, p := range cands {
		r := p.B - len(left)
		dirty = classifyPair(&out, dirty, p,
			leftProf[p.A], rightProf[r], leftSorted[p.A], rightSorted[r], isDup[p], alpha, beta)
	}
	for p := range isDup {
		if !inCands[p] {
			out.MissedBelow++
		}
	}
	out.Truth = dataset.NewGroundTruth(len(out.Pairs), dirty)
	return &out
}

func pairSet(pairs [][2]int) map[entity.Pair]bool {
	out := make(map[entity.Pair]bool, len(pairs))
	for _, p := range pairs {
		out[entity.NewPair(p[0], p[1])] = true
	}
	return out
}
