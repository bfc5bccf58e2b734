package similarity

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestLevenshteinKnown(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"saturday", "sunday", 3},
		{"abc", "abc", 0},
		{"abc", "abd", 1},
		{"ab", "ba", 2},
		{"café", "cafe", 1}, // rune-level, not byte-level
	}
	for _, tt := range tests {
		if got := Levenshtein(tt.a, tt.b); got != tt.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func randStr(rng *rand.Rand, maxLen int) string {
	n := rng.IntN(maxLen + 1)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.IntN(4)) // small alphabet makes collisions likely
	}
	return string(b)
}

func TestLevenshteinMetricAxioms(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	prop := func(seed uint64) bool {
		a, b, c := randStr(rng, 12), randStr(rng, 12), randStr(rng, 12)
		dab, dba := Levenshtein(a, b), Levenshtein(b, a)
		if dab != dba { // symmetry
			return false
		}
		if Levenshtein(a, a) != 0 { // identity
			return false
		}
		if dab == 0 && a != b { // separation
			return false
		}
		// Triangle inequality.
		if Levenshtein(a, c) > dab+Levenshtein(b, c) {
			return false
		}
		// Upper bound: max length.
		maxLen := len(a)
		if len(b) > maxLen {
			maxLen = len(b)
		}
		return dab <= maxLen
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestEditSimilarity(t *testing.T) {
	if got := EditSimilarity("", ""); got != 1 {
		t.Fatalf("empty similarity = %v", got)
	}
	if got := EditSimilarity("abc", "abc"); got != 1 {
		t.Fatalf("equal similarity = %v", got)
	}
	if got := EditSimilarity("abc", "xyz"); got != 0 {
		t.Fatalf("disjoint similarity = %v", got)
	}
	if got := EditSimilarity("abcd", "abcx"); got != 0.75 {
		t.Fatalf("similarity = %v, want 0.75", got)
	}
}

func TestEditSimilarityBounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	prop := func(seed uint64) bool {
		a, b := randStr(rng, 15), randStr(rng, 15)
		s := EditSimilarity(a, b)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Ritz-Carlton Cafe (Buckhead) #2")
	want := []string{"ritz", "carlton", "cafe", "buckhead", "2"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tokenize = %v, want %v", got, want)
		}
	}
	if len(Tokenize("  ...  ")) != 0 {
		t.Fatal("punctuation-only string should have no tokens")
	}
}

func TestTokenSortKey(t *testing.T) {
	// The paper's duplicate example: reordering plus punctuation drift.
	a := TokenSortKey("Ritz-Carlton Cafe (buckhead)")
	b := TokenSortKey("Cafe Ritz-Carlton Buckhead")
	if a != b {
		t.Fatalf("keys differ: %q vs %q", a, b)
	}
	if got := TokenSortKey("b a c"); got != "a b c" {
		t.Fatalf("TokenSortKey = %q", got)
	}
	if got := TokenSortKey(""); got != "" {
		t.Fatalf("empty key = %q", got)
	}
}

func TestTokenSortedEditSimilarity(t *testing.T) {
	// Token reordering should not hurt the sorted similarity.
	if got := TokenSortedEditSimilarity("Golden Dragon Cafe", "Cafe Golden Dragon"); got != 1 {
		t.Fatalf("reordered similarity = %v", got)
	}
	plain := EditSimilarity("Golden Dragon Cafe", "Cafe Golden Dragon")
	if plain >= 1 {
		t.Fatal("test premise broken: plain similarity should degrade on reorder")
	}
}

// referenceLevenshtein is the textbook full-matrix DP, kept as an oracle for
// the optimized kernel (prefix/suffix trimming, Myers bit-parallel core,
// banded abandon).
func referenceLevenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			d := prev[j] + 1
			if c := cur[j-1] + 1; c < d {
				d = c
			}
			if c := prev[j-1] + cost; c < d {
				d = c
			}
			cur[j] = d
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// TestLevenshteinMatchesReference cross-validates the optimized kernel
// against the naive DP on deterministic pseudo-random strings, covering the
// Myers fast path (short patterns), the DP fallback (>64 runes) and
// non-ASCII runes.
func TestLevenshteinMatchesReference(t *testing.T) {
	alphabets := []string{"ab", "abcde 0189", "αβγ ab"}
	state := uint64(42)
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int(state>>33) % n
	}
	for _, alpha := range alphabets {
		runes := []rune(alpha)
		mk := func(maxLen int) string {
			n := next(maxLen + 1)
			out := make([]rune, n)
			for i := range out {
				out[i] = runes[next(len(runes))]
			}
			return string(out)
		}
		for i := 0; i < 300; i++ {
			a, b := mk(90), mk(90)
			want := referenceLevenshtein(a, b)
			if got := Levenshtein(a, b); got != want {
				t.Fatalf("Levenshtein(%q, %q) = %d, want %d", a, b, got, want)
			}
			if got := BoundedLevenshtein(a, b, want); got != want {
				t.Fatalf("BoundedLevenshtein(%q, %q, %d) = %d, want exact", a, b, want, got)
			}
			if lo := BoundedLevenshtein(a, b, want-1); want > 0 && lo <= want-1 {
				t.Fatalf("BoundedLevenshtein(%q, %q, %d) = %d, want > bound", a, b, want-1, lo)
			}
		}
	}
}

// TestEditSimilarityAtLeast: the thresholded path must classify exactly like
// the unbounded similarity.
func TestEditSimilarityAtLeast(t *testing.T) {
	pairs := [][2]string{
		{"", ""},
		{"a", ""},
		{"kitten", "sitting"},
		{"ritz carlton cafe", "cafe ritz"},
		{"completely different", "unrelated words here"},
		{"same string same string", "same string same string"},
	}
	for _, minSim := range []float64{0, 0.3, 0.5, 0.9, 1} {
		for _, p := range pairs {
			want := EditSimilarity(p[0], p[1])
			got, ok := EditSimilarityAtLeast(p[0], p[1], minSim)
			if wantOK := want >= minSim; ok != wantOK {
				t.Fatalf("EditSimilarityAtLeast(%q, %q, %v) ok = %v, want %v (sim %v)",
					p[0], p[1], minSim, ok, wantOK, want)
			}
			if ok && got != want {
				t.Fatalf("EditSimilarityAtLeast(%q, %q, %v) = %v, want %v", p[0], p[1], minSim, got, want)
			}
		}
	}
}

// TestCharProfileBound: the histogram bound never exceeds the true distance,
// and CouldMatch never discards a pair the exact comparison keeps.
func TestCharProfileBound(t *testing.T) {
	strs := []string{"", "abc", "cafe ritz carlton", "ritz carlton cafe",
		"photoshop elements 5", "unrelated zzz 999", "αβγ non ascii"}
	for _, a := range strs {
		for _, b := range strs {
			pa, pb := NewCharProfile(a), NewCharProfile(b)
			d := Levenshtein(a, b)
			if lb := pa.MinDistance(pb); lb > d {
				t.Fatalf("MinDistance(%q, %q) = %d exceeds true distance %d", a, b, lb, d)
			}
			for _, minSim := range []float64{0.3, 0.5, 0.9} {
				if _, ok := EditSimilarityAtLeast(a, b, minSim); ok && !pa.CouldMatch(pb, minSim) {
					t.Fatalf("CouldMatch(%q, %q, %v) discarded a matching pair", a, b, minSim)
				}
			}
		}
	}
}
