package xrand

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(12345), New(12345)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/64 identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling children produced identical first draws")
	}

	// Children derived in the same order are reproducible regardless of
	// parent draws in between.
	p1 := New(7)
	q1 := p1.Split()
	p1.Uint64() // parent draw must not affect the next child
	q2 := p1.Split()

	p2 := New(7)
	r1 := p2.Split()
	r2 := p2.Split()
	if q1.Uint64() != r1.Uint64() || q2.Uint64() != r2.Uint64() {
		t.Fatal("split children not reproducible")
	}
}

func TestSplitNamedStable(t *testing.T) {
	a := New(9).SplitNamed("workers")
	b := New(9).SplitNamed("workers")
	if a.Uint64() != b.Uint64() {
		t.Fatal("same-named children differ")
	}
	c := New(9).SplitNamed("tasks")
	d := New(9).SplitNamed("workers")
	if c.Uint64() == d.Uint64() {
		t.Fatal("differently named children coincide")
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(1)
	for i := 0; i < 50; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(2)
	const n, p = 20000, 0.3
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-p) > 0.02 {
		t.Fatalf("Bernoulli(%v) empirical rate %v", p, got)
	}
}

func TestSampleWithoutReplacementProperties(t *testing.T) {
	r := New(3)
	prop := func(nRaw, kRaw uint16) bool {
		n := int(nRaw%500) + 1
		k := int(kRaw % 600)
		s := r.SampleWithoutReplacement(n, k)
		want := k
		if k > n {
			want = n
		}
		if k <= 0 {
			want = 0
		}
		if len(s) != want {
			return false
		}
		seen := make(map[int]bool, len(s))
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleWithoutReplacementFloydPath(t *testing.T) {
	r := New(4)
	// k < n/16 forces Floyd's algorithm.
	s := r.SampleWithoutReplacement(10000, 20)
	if len(s) != 20 {
		t.Fatalf("got %d samples", len(s))
	}
	seen := make(map[int]bool)
	for _, v := range s {
		if seen[v] {
			t.Fatalf("duplicate %d from Floyd sampling", v)
		}
		seen[v] = true
	}
}

func TestSampleUniformity(t *testing.T) {
	// Every element should appear roughly equally often across repeated
	// small samples.
	r := New(5)
	const n, k, reps = 10, 3, 30000
	counts := make([]int, n)
	for i := 0; i < reps; i++ {
		for _, v := range r.SampleWithoutReplacement(n, k) {
			counts[v]++
		}
	}
	want := float64(reps*k) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Fatalf("element %d drawn %d times, want ≈%.0f", v, c, want)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(6)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if seen[v] {
			t.Fatalf("duplicate %d in permutation", v)
		}
		seen[v] = true
	}
}

func TestSampleSliceAndChoice(t *testing.T) {
	r := New(7)
	items := []string{"a", "b", "c", "d"}
	s := SampleSlice(r, items, 2)
	if len(s) != 2 {
		t.Fatalf("SampleSlice returned %d items", len(s))
	}
	if s[0] == s[1] {
		t.Fatal("SampleSlice returned duplicates")
	}
	got := Choice(r, items)
	found := false
	for _, it := range items {
		if it == got {
			found = true
		}
	}
	if !found {
		t.Fatalf("Choice returned %q, not an element", got)
	}
}

func TestTruncNormBounds(t *testing.T) {
	r := New(9)
	for i := 0; i < 5000; i++ {
		v := r.TruncNorm(0.5, 0.4, 0, 1)
		if v < 0 || v > 1 {
			t.Fatalf("TruncNorm out of bounds: %v", v)
		}
	}
	if got := r.TruncNorm(2, 0, 0, 1); got != 1 {
		t.Fatalf("zero-std TruncNorm should clamp mean: got %v", got)
	}
	if got := r.TruncNorm(-1, 0, 0, 1); got != 0 {
		t.Fatalf("zero-std TruncNorm should clamp mean: got %v", got)
	}
}

func TestTruncNormMean(t *testing.T) {
	r := New(10)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += r.TruncNorm(0.5, 0.1, 0, 1)
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("TruncNorm mean %v, want ≈0.5", mean)
	}
}

func TestIntNFloat64Ranges(t *testing.T) {
	r := New(11)
	for i := 0; i < 1000; i++ {
		if v := r.IntN(7); v < 0 || v >= 7 {
			t.Fatalf("IntN out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestShuffle(t *testing.T) {
	r := New(12)
	vals := []int{0, 1, 2, 3, 4, 5, 6, 7}
	orig := append([]int(nil), vals...)
	r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	seen := make(map[int]bool)
	for _, v := range vals {
		seen[v] = true
	}
	if len(seen) != len(orig) {
		t.Fatal("shuffle lost elements")
	}
}

// TestSplitAtMatchesSequentialSplit pins the indexed-addressing contract:
// SplitAt(i) on a fresh parent is the (i+1)-th sequential Split, and SplitAt
// never advances the parent's split counter.
func TestSplitAtMatchesSequentialSplit(t *testing.T) {
	const children = 8
	seq := make([]uint64, children)
	{
		parent := New(99)
		for i := range seq {
			seq[i] = parent.Split().Uint64()
		}
	}
	parent := New(99)
	// Query out of order, interleaved, repeatedly: index addressing must not
	// depend on call order or perturb the parent.
	for _, i := range []uint64{3, 0, 7, 3, 1, 6, 2, 5, 4, 0} {
		if got := parent.SplitAt(i).Uint64(); got != seq[i] {
			t.Fatalf("SplitAt(%d) first draw = %d, want sequential child's %d", i, got, seq[i])
		}
	}
	if got, want := parent.Split().Uint64(), seq[0]; got != want {
		t.Fatalf("SplitAt advanced the parent: next Split draw = %d, want %d", got, want)
	}
}

// TestReseedAtMatchesSplitAt: reseeding a scratch RNG in place must reproduce
// the allocated child stream exactly — the 0-alloc hot-loop form the bootstrap
// worker pool relies on.
func TestReseedAtMatchesSplitAt(t *testing.T) {
	parent := New(7)
	scratch := New(0)
	for i := uint64(0); i < 20; i++ {
		want := parent.SplitAt(i)
		scratch.ReseedAt(parent, i)
		for d := 0; d < 16; d++ {
			if g, w := scratch.Uint64(), want.Uint64(); g != w {
				t.Fatalf("child %d draw %d: ReseedAt %d != SplitAt %d", i, d, g, w)
			}
		}
	}
	// A reseeded scratch can itself split (replicates that need sub-streams).
	scratch.ReseedAt(parent, 3)
	if g, w := scratch.Split().Uint64(), parent.SplitAt(3).Split().Uint64(); g != w {
		t.Fatalf("post-reseed Split diverged: %d != %d", g, w)
	}
}

// TestSplitAtConcurrent: SplitAt reads only immutable seed material, so many
// goroutines may address one parent concurrently (run under -race in CI).
func TestSplitAtConcurrent(t *testing.T) {
	parent := New(123)
	want := make([]uint64, 64)
	for i := range want {
		want[i] = parent.SplitAt(uint64(i)).Uint64()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			scratch := New(0)
			for i := g; i < len(want); i += 8 {
				if got := parent.SplitAt(uint64(i)).Uint64(); got != want[i] {
					t.Errorf("concurrent SplitAt(%d) = %d, want %d", i, got, want[i])
				}
				scratch.ReseedAt(parent, uint64(i))
				if got := scratch.Uint64(); got != want[i] {
					t.Errorf("concurrent ReseedAt(%d) = %d, want %d", i, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}
