package entity

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewPairCanonical(t *testing.T) {
	if p := NewPair(3, 1); p.A != 1 || p.B != 3 {
		t.Fatalf("NewPair(3,1) = %v", p)
	}
	if p := NewPair(1, 3); p.A != 1 || p.B != 3 {
		t.Fatalf("NewPair(1,3) = %v", p)
	}
}

func TestNewPairPanicsOnSelf(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self pair did not panic")
		}
	}()
	NewPair(2, 2)
}

func TestNumPairs(t *testing.T) {
	tests := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 3}, {858, 858 * 857 / 2},
	}
	for _, tt := range tests {
		if got := NumPairs(tt.n); got != tt.want {
			t.Fatalf("NumPairs(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestAllPairs(t *testing.T) {
	var got []Pair
	AllPairs(4, func(p Pair) bool {
		got = append(got, p)
		return true
	})
	if len(got) != 6 {
		t.Fatalf("AllPairs(4) yielded %d pairs", len(got))
	}
	// Lexicographic order, canonical form.
	for i, p := range got {
		if p.A >= p.B {
			t.Fatalf("non-canonical pair %v", p)
		}
		if i > 0 {
			prev := got[i-1]
			if prev.A > p.A || (prev.A == p.A && prev.B >= p.B) {
				t.Fatalf("out of order: %v then %v", prev, p)
			}
		}
	}
	// Early stop.
	count := 0
	AllPairs(10, func(Pair) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d pairs", count)
	}
}

func TestPairIndexRoundTrip(t *testing.T) {
	prop := func(nRaw, aRaw, bRaw uint16) bool {
		n := int(nRaw%200) + 2
		a := int(aRaw) % n
		b := int(bRaw) % n
		if a == b {
			b = (b + 1) % n
		}
		p := NewPair(a, b)
		idx := PairIndex(n, p)
		if idx < 0 || idx >= NumPairs(n) {
			return false
		}
		return PairFromIndex(n, idx) == p
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPairIndexDense(t *testing.T) {
	// Indices must enumerate 0..NumPairs-1 exactly once in AllPairs order.
	const n = 12
	next := 0
	AllPairs(n, func(p Pair) bool {
		if got := PairIndex(n, p); got != next {
			t.Fatalf("PairIndex(%v) = %d, want %d", p, got, next)
		}
		next++
		return true
	})
	if next != NumPairs(n) {
		t.Fatalf("enumerated %d pairs", next)
	}
}

func TestBipartiteCandidatePairs(t *testing.T) {
	left := []string{"adobe photoshop", "corel draw"}
	right := []string{"photoshop elements", "unrelated thing"}
	pairs := Blocker{}.BipartiteCandidatePairs(left, right)
	if len(pairs) != 1 {
		t.Fatalf("pairs = %v", pairs)
	}
	// Right ids offset by len(left); only cross-catalog pairs.
	if pairs[0].A != 0 || pairs[0].B != 2 {
		t.Fatalf("pair = %v", pairs[0])
	}
}

func TestBipartiteNoSameSidePairs(t *testing.T) {
	left := []string{"alpha beta", "beta gamma"}
	right := []string{"delta"}
	pairs := Blocker{}.BipartiteCandidatePairs(left, right)
	for _, p := range pairs {
		if p.A >= len(left) || p.B < len(left) {
			t.Fatalf("same-side pair %v", p)
		}
	}
	if len(pairs) != 0 {
		t.Fatalf("no cross tokens shared, got %v", pairs)
	}
}

// NumPairs returns N(N−1)/2, the canonical pair-space size over n records.
func NumPairs(n int) int {
	return n * (n - 1) / 2
}

// PairIndex maps a canonical pair over n records to a dense index in
// [0, NumPairs(n)), the item id used by the response matrix.
func PairIndex(n int, p Pair) int {
	// Offset of row A: pairs (0,·)+(1,·)+…+(A−1,·) = A·n − A(A+1)/2.
	return p.A*n - p.A*(p.A+1)/2 + (p.B - p.A - 1)
}

// PairFromIndex inverts PairIndex.
func PairFromIndex(n, idx int) Pair {
	a := 0
	for {
		rowLen := n - a - 1
		if idx < rowLen {
			return Pair{A: a, B: a + 1 + idx}
		}
		idx -= rowLen
		a++
	}
}

func TestUnionFind(t *testing.T) {
	u := NewUnionFind(6)
	if !u.Union(0, 1) {
		t.Fatal("first union reported no-op")
	}
	if u.Union(1, 0) {
		t.Fatal("repeated union reported merge")
	}
	u.Union(1, 2)
	u.Union(4, 5)
	if u.Find(0) != u.Find(2) {
		t.Fatal("transitive union broken")
	}
	if u.Find(3) == u.Find(0) {
		t.Fatal("separate sets merged")
	}
	clusters := u.Clusters()
	if len(clusters) != 2 {
		t.Fatalf("clusters = %v", clusters)
	}
	if len(clusters[0]) != 3 || clusters[0][0] != 0 {
		t.Fatalf("first cluster = %v", clusters[0])
	}
	if len(clusters[1]) != 2 || clusters[1][0] != 4 {
		t.Fatalf("second cluster = %v", clusters[1])
	}
}

func TestCanonicalDuplicatePairs(t *testing.T) {
	// The paper's example: {q1−q2, q1−q4, q2−q1, q2−q4} ↦ {q1−q2, q1−q4}.
	matches := []Pair{
		NewPair(1, 2), NewPair(1, 4), NewPair(2, 1), NewPair(2, 4),
	}
	got := CanonicalDuplicatePairs(5, matches)
	if len(got) != 2 {
		t.Fatalf("canonical pairs = %v", got)
	}
	if got[0] != (Pair{A: 1, B: 2}) || got[1] != (Pair{A: 1, B: 4}) {
		t.Fatalf("canonical pairs = %v", got)
	}
	// A cluster of size k contributes exactly k−1 pairs.
	big := CanonicalDuplicatePairs(10, []Pair{
		NewPair(0, 1), NewPair(1, 2), NewPair(2, 3), NewPair(5, 6),
	})
	if len(big) != 4 { // cluster {0,1,2,3} → 3 pairs; {5,6} → 1
		t.Fatalf("canonical pairs = %v", big)
	}
}

func TestUnionFindRandomizedAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	const n = 40
	u := NewUnionFind(n)
	naive := make([]int, n) // component labels by exhaustive relabeling
	for i := range naive {
		naive[i] = i
	}
	for step := 0; step < 200; step++ {
		a, b := rng.IntN(n), rng.IntN(n)
		if a == b {
			continue
		}
		u.Union(a, b)
		la, lb := naive[a], naive[b]
		for i := range naive {
			if naive[i] == lb {
				naive[i] = la
			}
		}
		// Spot-check equivalence of the partitions.
		x, y := rng.IntN(n), rng.IntN(n)
		if (u.Find(x) == u.Find(y)) != (naive[x] == naive[y]) {
			t.Fatalf("step %d: partition mismatch for %d,%d", step, x, y)
		}
	}
}

// UnionFind supports transitive-closure deduplication: a set of matched
// pairs like {q1−q2, q2−q4} collapses to one cluster, from which the
// canonical duplicate-pair set is derived without double counting.
type UnionFind struct {
	parent []int
	rank   []int
}

// NewUnionFind creates n singleton sets.
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{parent: make([]int, n), rank: make([]int, n)}
	for i := range u.parent {
		u.parent[i] = i
	}
	return u
}

// Find returns the canonical representative of x with path compression.
func (u *UnionFind) Find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// Union merges the sets of a and b, returning true if they were distinct.
func (u *UnionFind) Union(a, b int) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	return true
}

// Clusters groups item ids by representative, returning only clusters of
// size ≥ 2 (actual duplicate groups), each sorted.
func (u *UnionFind) Clusters() [][]int {
	groups := make(map[int][]int)
	for i := range u.parent {
		groups[u.Find(i)] = append(groups[u.Find(i)], i)
	}
	var out [][]int
	for _, g := range groups {
		if len(g) >= 2 {
			sort.Ints(g)
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// CanonicalDuplicatePairs reduces a set of raw matched pairs to the
// canonical duplicate-pair set of Section 2.1: transitive matches collapse
// into clusters and each cluster of size k contributes its spanning k−1
// pairs anchored at the smallest element — mirroring the paper's example
// {q1−q2, q1−q4, q2−q1, q2−q4} ↦ {q1−q2, q1−q4}.
func CanonicalDuplicatePairs(n int, matches []Pair) []Pair {
	u := NewUnionFind(n)
	for _, p := range matches {
		u.Union(p.A, p.B)
	}
	var out []Pair
	for _, cluster := range u.Clusters() {
		anchor := cluster[0]
		for _, other := range cluster[1:] {
			out = append(out, Pair{A: anchor, B: other})
		}
	}
	return out
}
