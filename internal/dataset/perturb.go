package dataset

import (
	"strings"

	"dqm/internal/xrand"
)

// Perturbations model how a duplicate record differs from its original:
// typos, abbreviation, token reordering, dropped tokens and punctuation
// drift. They are used by the restaurant and product generators so that the
// planted duplicates have graded similarity, which is what makes the
// prioritization window (α ≤ H ≤ β) non-trivial.

var abbreviations = map[string]string{
	"Street": "St", "Avenue": "Ave", "Boulevard": "Blvd", "Drive": "Dr",
	"Road": "Rd", "Lane": "Ln", "Court": "Ct", "Place": "Pl",
	"Restaurant": "Rest.", "Cafe": "Caffe", "and": "&", "North": "N",
	"South": "S", "East": "E", "West": "W", "Saint": "St.",
	"Professional": "Pro", "Standard": "Std", "Deluxe": "Dlx",
	"Edition": "Ed.", "Version": "Ver.",
}

// typo applies one random character-level edit: swap, deletion, duplication
// or substitution with a neighboring letter.
func typo(r *xrand.RNG, s string) string {
	runes := []rune(s)
	if len(runes) < 2 {
		return s
	}
	i := r.IntN(len(runes) - 1)
	switch r.IntN(4) {
	case 0: // transpose
		runes[i], runes[i+1] = runes[i+1], runes[i]
		return string(runes)
	case 1: // delete
		return string(runes[:i]) + string(runes[i+1:])
	case 2: // duplicate
		return string(runes[:i+1]) + string(runes[i:])
	default: // substitute with an adjacent alphabet letter
		c := runes[i]
		if c >= 'a' && c < 'z' {
			runes[i] = c + 1
		} else if c > 'A' && c <= 'Z' {
			runes[i] = c - 1
		} else {
			runes[i] = 'x'
		}
		return string(runes)
	}
}

// abbreviate replaces one expandable token with its abbreviation (or the
// reverse, expanding a known abbreviation).
func abbreviate(r *xrand.RNG, s string) string {
	words := strings.Fields(s)
	// Collect candidate positions first so the choice is uniform.
	var cands []int
	for i, w := range words {
		if _, ok := abbreviations[w]; ok {
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		return s
	}
	i := cands[r.IntN(len(cands))]
	words[i] = abbreviations[words[i]]
	return strings.Join(words, " ")
}

// reorderTokens moves the last token to the front ("Cafe Ritz-Carlton
// Buckhead" → "Buckhead Cafe Ritz-Carlton"), the classic duplicate pattern
// from the paper's restaurant example.
func reorderTokens(r *xrand.RNG, s string) string {
	words := strings.Fields(s)
	if len(words) < 2 {
		return s
	}
	last := words[len(words)-1]
	rest := words[:len(words)-1]
	return last + " " + strings.Join(rest, " ")
}

// dropToken removes one token from a multi-token string.
func dropToken(r *xrand.RNG, s string) string {
	words := strings.Fields(s)
	if len(words) < 3 {
		return s
	}
	i := r.IntN(len(words))
	return strings.Join(append(append([]string{}, words[:i]...), words[i+1:]...), " ")
}

// parenthesize wraps the final token in parentheses ("Ritz-Carlton Cafe
// Buckhead" → "Ritz-Carlton Cafe (Buckhead)").
func parenthesize(r *xrand.RNG, s string) string {
	words := strings.Fields(s)
	if len(words) < 2 {
		return s
	}
	words[len(words)-1] = "(" + words[len(words)-1] + ")"
	return strings.Join(words, " ")
}

var perturbOps = []func(*xrand.RNG, string) string{
	typo, abbreviate, reorderTokens, parenthesize, dropToken,
}

// Perturb produces a duplicate-style variant of s by applying changes random
// edits; more changes produce lower-similarity duplicates (harder for both
// heuristics and workers).
func Perturb(r *xrand.RNG, s string, changes int) string {
	out := s
	for i := 0; i < changes; i++ {
		op := perturbOps[r.IntN(len(perturbOps))]
		out = op(r, out)
	}
	if out == s {
		// Guarantee the variant differs: fall back to a typo, which always
		// changes strings of length ≥ 2.
		out = typo(r, s)
	}
	return out
}
