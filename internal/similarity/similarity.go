// Package similarity provides the string-similarity measures used by the
// CrowdER-style prioritization heuristics: normalized edit-distance
// similarity (the measure the paper uses to window candidate pairs), on raw
// and on token-sorted strings.
package similarity

import (
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// levState is the reusable scratch of the edit-distance kernel: the rune
// decodings of both inputs and the two DP rows. Pooling it makes Levenshtein
// allocation-free in steady state while staying safe for concurrent callers
// (the parallel replay engine scores from many goroutines).
type levState struct {
	ra, rb    []rune
	prev, cur []int
	// peq holds the Myers bit-parallel pattern masks for ASCII runes;
	// peqExt is the (rare) spill for wider runes. Touched cells are zeroed
	// after each call so the state stays reusable without a full clear.
	peq    [128]uint64
	peqExt map[rune]uint64
}

var levPool = sync.Pool{New: func() any { return new(levState) }}

// appendRunes decodes s into dst, reusing dst's capacity.
func appendRunes(dst []rune, s string) []rune {
	for _, r := range s {
		dst = append(dst, r)
	}
	return dst
}

// Levenshtein returns the edit distance between a and b (unit costs for
// insertion, deletion and substitution), operating on runes.
func Levenshtein(a, b string) int {
	st := levPool.Get().(*levState)
	d := st.distance(a, b, -1)
	levPool.Put(st)
	return d
}

// BoundedLevenshtein returns the edit distance between a and b if it is at
// most max, and any value greater than max otherwise (the DP rows are
// abandoned as soon as every cell exceeds the bound). Callers that only
// classify against a threshold — such as the candidate-window prefilter —
// avoid the full O(|a|·|b|) work on clearly dissimilar strings.
func BoundedLevenshtein(a, b string, max int) int {
	if max < 0 {
		return 0
	}
	st := levPool.Get().(*levState)
	d := st.distance(a, b, max)
	levPool.Put(st)
	return d
}

// distance runs the two-row DP. A non-negative bound enables the length-gap
// early exit and the per-row band abandon.
func (st *levState) distance(a, b string, bound int) int {
	ra := appendRunes(st.ra[:0], a)
	rb := appendRunes(st.rb[:0], b)
	st.ra, st.rb = ra, rb

	// Trim the common prefix and suffix: they contribute no edits and
	// shrinking the DP quadratically outweighs the linear scan.
	for len(ra) > 0 && len(rb) > 0 && ra[0] == rb[0] {
		ra, rb = ra[1:], rb[1:]
	}
	for len(ra) > 0 && len(rb) > 0 && ra[len(ra)-1] == rb[len(rb)-1] {
		ra, rb = ra[:len(ra)-1], rb[:len(rb)-1]
	}
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	gap := len(ra) - len(rb)
	if gap < 0 {
		gap = -gap
	}
	if bound >= 0 && gap > bound {
		// Every alignment needs at least |len(a)−len(b)| insertions.
		return gap
	}

	// Myers' bit-parallel algorithm processes one text rune per word
	// operation when the (shorter) pattern fits in a machine word — the
	// common case for record keys — an order of magnitude faster than the
	// cell-by-cell DP below.
	if len(ra) > len(rb) {
		ra, rb = rb, ra
	}
	if len(ra) <= 64 {
		return st.myers(ra, rb)
	}

	// Single-row dynamic program; prev is D[i-1][*], cur is D[i][*].
	prev, cur := st.prev, st.cur
	for len(prev) < len(rb)+1 {
		prev = append(prev, 0)
		cur = append(cur, 0)
	}
	st.prev, st.cur = prev, cur
	for j := 0; j <= len(rb); j++ {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		rowMin := i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			d := min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
			cur[j] = d
			if d < rowMin {
				rowMin = d
			}
		}
		if bound >= 0 && rowMin > bound {
			// Row values only grow downward; the final distance already
			// exceeds the bound.
			return rowMin
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// myers computes Levenshtein(pattern, text) with Myers' 1999 bit-parallel
// algorithm (Hyyrö's formulation); pattern must have at most 64 runes.
func (st *levState) myers(pattern, text []rune) int {
	m := len(pattern)
	var ext map[rune]uint64
	for i, r := range pattern {
		bit := uint64(1) << i
		if r < 128 {
			st.peq[r] |= bit
		} else {
			if ext == nil {
				if st.peqExt == nil {
					st.peqExt = make(map[rune]uint64)
				}
				ext = st.peqExt
			}
			ext[r] |= bit
		}
	}

	pv, mv := ^uint64(0), uint64(0)
	score := m
	high := uint64(1) << (m - 1)
	for _, r := range text {
		var eq uint64
		if r < 128 {
			eq = st.peq[r]
		} else if ext != nil {
			eq = ext[r]
		}
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&high != 0 {
			score++
		}
		if mh&high != 0 {
			score--
		}
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}

	for _, r := range pattern {
		if r < 128 {
			st.peq[r] = 0
		} else {
			delete(ext, r)
		}
	}
	return score
}

// EditSimilarity returns the normalized edit-distance similarity
// 1 − d(a,b)/max(|a|,|b|) ∈ [0, 1]. Two empty strings have similarity 1.
func EditSimilarity(a, b string) float64 {
	la, lb := utf8.RuneCountInString(a), utf8.RuneCountInString(b)
	if la == 0 && lb == 0 {
		return 1
	}
	maxLen := la
	if lb > maxLen {
		maxLen = lb
	}
	return 1 - float64(Levenshtein(a, b))/float64(maxLen)
}

// EditSimilarityAtLeast reports whether EditSimilarity(a, b) ≥ minSim and, if
// so, its exact value. When the similarity is below the threshold it returns
// (0, false) without completing the full dynamic program: similarity ≥ minSim
// bounds the edit distance by (1−minSim)·max(|a|,|b|), so the kernel abandons
// dissimilar pairs after the cheap length-gap check or the first hopeless DP
// row. Candidate-window scans use it to skip the O(n·m) work on the vast
// majority of pairs.
func EditSimilarityAtLeast(a, b string, minSim float64) (float64, bool) {
	la, lb := utf8.RuneCountInString(a), utf8.RuneCountInString(b)
	if la == 0 && lb == 0 {
		return 1, minSim <= 1
	}
	maxLen := la
	if lb > maxLen {
		maxLen = lb
	}
	bound := maxLen
	if minSim > 0 {
		// One unit of slack absorbs float rounding at the threshold; the
		// exact float comparison below then decides the borderline pairs the
		// same way an unbounded EditSimilarity call would.
		bound = int((1-minSim)*float64(maxLen)) + 1
	}
	d := BoundedLevenshtein(a, b, bound)
	sim := 1 - float64(d)/float64(maxLen)
	if sim < minSim {
		return 0, false
	}
	return sim, true
}

// CharProfile is a precomputed character histogram plus rune length. Two
// profiles give an O(alphabet) lower bound on the edit distance of their
// strings: every insertion or deletion moves one histogram cell and every
// substitution moves two (one down, one up), so the distance is at least
// max(surplus, deficit) over the cells. Candidate scans build one profile
// per record and use CouldMatch to discard the bulk of pairs without
// touching the DP kernel.
type CharProfile struct {
	counts [38]int32
	length int
}

// charBucket maps a rune to a histogram cell: 'a'–'z' → 0–25, '0'–'9' →
// 26–35, space → 36, everything else → 37. Collisions in the overflow cell
// only weaken the bound, never invalidate it.
func charBucket(r rune) int {
	switch {
	case r >= 'a' && r <= 'z':
		return int(r - 'a')
	case r >= '0' && r <= '9':
		return 26 + int(r-'0')
	case r == ' ':
		return 36
	default:
		return 37
	}
}

// NewCharProfile builds the profile of s.
func NewCharProfile(s string) CharProfile {
	var p CharProfile
	for _, r := range s {
		p.counts[charBucket(r)]++
		p.length++
	}
	return p
}

// MinDistance returns a lower bound on Levenshtein(a, b) computed from the
// histograms alone.
func (p CharProfile) MinDistance(q CharProfile) int {
	var surplus, deficit int32
	for i := range p.counts {
		if d := p.counts[i] - q.counts[i]; d > 0 {
			surplus += d
		} else {
			deficit -= d
		}
	}
	if surplus > deficit {
		return int(surplus)
	}
	return int(deficit)
}

// CouldMatch reports whether the histogram bound allows
// EditSimilarity(a, b) ≥ minSim. A false return is definitive; a true
// return still requires the exact kernel.
func (p CharProfile) CouldMatch(q CharProfile, minSim float64) bool {
	maxLen := p.length
	if q.length > maxLen {
		maxLen = q.length
	}
	if maxLen == 0 {
		return minSim <= 1
	}
	// Same one-unit slack as EditSimilarityAtLeast so the filter never
	// discards a pair the exact comparison would keep.
	bound := int((1-minSim)*float64(maxLen)) + 1
	return p.MinDistance(q) <= bound
}

// Tokenize lower-cases s and splits it into alphanumeric tokens.
func Tokenize(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// TokenSortKey normalizes a string for order-insensitive comparison:
// lower-cased tokens sorted and re-joined. "Cafe Ritz-Carlton Buckhead" and
// "Ritz-Carlton Cafe (Buckhead)" normalize to the same key.
func TokenSortKey(s string) string {
	toks := Tokenize(s)
	// Insertion sort: token lists are short.
	for i := 1; i < len(toks); i++ {
		for j := i; j > 0 && toks[j] < toks[j-1]; j-- {
			toks[j], toks[j-1] = toks[j-1], toks[j]
		}
	}
	return strings.Join(toks, " ")
}

// TokenSortedEditSimilarity returns the edit similarity of the token-sorted
// normalizations, robust to token reordering typical of duplicate records.
func TokenSortedEditSimilarity(a, b string) float64 {
	return EditSimilarity(TokenSortKey(a), TokenSortKey(b))
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func min3(a, b, c int) int {
	return min2(min2(a, b), c)
}
