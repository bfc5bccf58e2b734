package votes

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"dqm/internal/stats"
)

func TestLabelString(t *testing.T) {
	if Clean.String() != "clean" || Dirty.String() != "dirty" {
		t.Fatal("label strings wrong")
	}
	if Label(9).String() != "Label(9)" {
		t.Fatalf("unknown label string: %s", Label(9))
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3)
	if m.NumItems() != 3 || m.TotalVotes() != 0 || m.Nominal() != 0 || m.Majority() != 0 {
		t.Fatal("fresh matrix not empty")
	}
	m.Add(Vote{Item: 0, Worker: 1, Label: Dirty})
	m.Add(Vote{Item: 0, Worker: 2, Label: Clean})
	m.Add(Vote{Item: 1, Worker: 1, Label: Clean})
	m.Add(Vote{Item: 2, Worker: 3, Label: Dirty})
	m.Add(Vote{Item: 2, Worker: 4, Label: Dirty})

	if got := m.TotalVotes(); got != 5 {
		t.Fatalf("TotalVotes = %d", got)
	}
	if got := m.PositiveVotes(); got != 3 {
		t.Fatalf("PositiveVotes = %d", got)
	}
	// Nominal: items 0 and 2 were marked dirty at least once.
	if got := m.Nominal(); got != 2 {
		t.Fatalf("Nominal = %d", got)
	}
	// Majority: item 0 is tied (not a dirty majority), item 2 is 2-0.
	if got := m.Majority(); got != 1 {
		t.Fatalf("Majority = %d", got)
	}
	if m.MajorityDirty(0) || m.MajorityDirty(1) || !m.MajorityDirty(2) {
		t.Fatal("per-item majority wrong")
	}
	if m.Pos(0) != 1 || m.Neg(0) != 1 || m.Seen(0) != 2 {
		t.Fatal("per-item counts wrong")
	}
}

func TestMatrixMajorityFlipsBothWays(t *testing.T) {
	m := NewMatrix(1)
	m.Add(Vote{Item: 0, Label: Dirty})
	if m.Majority() != 1 {
		t.Fatal("majority should be dirty after one dirty vote")
	}
	m.Add(Vote{Item: 0, Label: Clean})
	if m.Majority() != 0 {
		t.Fatal("tie is not a dirty majority")
	}
	m.Add(Vote{Item: 0, Label: Dirty})
	if m.Majority() != 1 {
		t.Fatal("majority should flip back to dirty")
	}
}

func TestDirtyFingerprint(t *testing.T) {
	m := NewMatrix(4)
	// Item 0: 1 dirty vote; item 1: 2; item 2: 0; item 3: 1 (plus cleans).
	m.AddAll([]Vote{
		{Item: 0, Label: Dirty},
		{Item: 1, Label: Dirty}, {Item: 1, Label: Dirty},
		{Item: 2, Label: Clean},
		{Item: 3, Label: Dirty}, {Item: 3, Label: Clean},
	})
	f := m.DirtyFingerprint()
	if f.F(1) != 2 || f.F(2) != 1 {
		t.Fatalf("fingerprint = %v", f)
	}
	// Clean votes contribute nothing.
	if f.Mass() != m.PositiveVotes() {
		t.Fatalf("fingerprint mass %d != positive votes %d", f.Mass(), m.PositiveVotes())
	}
	// Returned fingerprint is a copy.
	f.Add(1, 100)
	if m.DirtyFingerprint().F(1) != 2 {
		t.Fatal("DirtyFingerprint leaked internal state")
	}
}

// TestAggregatesOrderIndependent: nominal, majority, n⁺ and the fingerprint
// are functions of the final matrix, not the ingestion order.
func TestAggregatesOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	prop := func(seed uint64) bool {
		const n = 20
		var vs []Vote
		for i := 0; i < 60; i++ {
			vs = append(vs, Vote{
				Item:   rng.IntN(n),
				Worker: rng.IntN(7),
				Label:  Label(rng.IntN(2)),
			})
		}
		a, b := NewMatrix(n), NewMatrix(n)
		a.AddAll(vs)
		shuffled := append([]Vote(nil), vs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		b.AddAll(shuffled)

		if a.Nominal() != b.Nominal() || a.Majority() != b.Majority() ||
			a.PositiveVotes() != b.PositiveVotes() || a.TotalVotes() != b.TotalVotes() {
			return false
		}
		fa, fb := a.DirtyFingerprint(), b.DirtyFingerprint()
		for j := 1; j < len(fa) || j < len(fb); j++ {
			if fa.F(j) != fb.F(j) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestFingerprintMatchesBruteForce cross-checks the incremental fingerprint
// against a recomputation from raw per-item counts.
func TestFingerprintMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	const n = 50
	m := NewMatrix(n)
	counts := make([]int, n)
	for i := 0; i < 500; i++ {
		item := rng.IntN(n)
		label := Label(rng.IntN(2))
		m.Add(Vote{Item: item, Label: label})
		if label == Dirty {
			counts[item]++
		}
	}
	want := stats.NewFreqFromCounts(counts)
	got := m.DirtyFingerprint()
	for j := 1; j < len(want) || j < len(got); j++ {
		if got.F(j) != want.F(j) {
			t.Fatalf("f%d = %d, want %d", j, got.F(j), want.F(j))
		}
	}
}

func TestNominalMajorityBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	const n = 30
	m := NewMatrix(n)
	pos := make([]int, n)
	neg := make([]int, n)
	for i := 0; i < 400; i++ {
		item := rng.IntN(n)
		label := Label(rng.IntN(2))
		m.Add(Vote{Item: item, Label: label})
		if label == Dirty {
			pos[item]++
		} else {
			neg[item]++
		}
		var wantNom, wantMaj int64
		for k := 0; k < n; k++ {
			if pos[k] > 0 {
				wantNom++
			}
			if pos[k] > neg[k] {
				wantMaj++
			}
		}
		if m.Nominal() != wantNom {
			t.Fatalf("step %d: Nominal = %d, want %d", i, m.Nominal(), wantNom)
		}
		if m.Majority() != wantMaj {
			t.Fatalf("step %d: Majority = %d, want %d", i, m.Majority(), wantMaj)
		}
	}
}

func TestHistory(t *testing.T) {
	m := NewMatrix(2, WithHistory())
	v1 := Vote{Item: 0, Worker: 1, Label: Dirty}
	v2 := Vote{Item: 0, Worker: 2, Label: Clean}
	m.Add(v1)
	m.Add(v2)
	h := m.History(0)
	if len(h) != 2 || h[0] != v1 || h[1] != v2 {
		t.Fatalf("history = %v", h)
	}
	if len(m.History(1)) != 0 {
		t.Fatal("untouched item has history")
	}
}

func TestWithoutHistory(t *testing.T) {
	// History is opt-in: a default matrix keeps only the per-item counts.
	m := NewMatrix(2)
	m.Add(Vote{Item: 0, Label: Dirty})
	if m.History(0) != nil || m.RetainsHistory() {
		t.Fatal("default matrix retained votes")
	}
	if m.Nominal() != 1 {
		t.Fatal("aggregates broken without history")
	}
}

func TestMajorityVector(t *testing.T) {
	m := NewMatrix(3)
	m.Add(Vote{Item: 1, Label: Dirty})
	v := m.MajorityVector()
	if v[0] || !v[1] || v[2] {
		t.Fatalf("MajorityVector = %v", v)
	}
}

func TestCoverage(t *testing.T) {
	m := NewMatrix(4)
	if m.Coverage() != 0 {
		t.Fatal("empty coverage nonzero")
	}
	m.Add(Vote{Item: 0, Label: Clean})
	m.Add(Vote{Item: 1, Label: Dirty})
	if got := m.Coverage(); got != 0.5 {
		t.Fatalf("Coverage = %v", got)
	}
	if got := NewMatrix(0).Coverage(); got != 0 {
		t.Fatalf("zero-item coverage = %v", got)
	}
}

func TestReset(t *testing.T) {
	m := NewMatrix(2, WithHistory())
	m.Add(Vote{Item: 0, Worker: 3, Label: Dirty})
	m.Reset()
	if m.TotalVotes() != 0 || m.Nominal() != 0 || m.Majority() != 0 ||
		m.PositiveVotes() != 0 || m.Pos(0) != 0 || m.Seen(0) != 0 {
		t.Fatal("Reset left state behind")
	}
	if len(m.History(0)) != 0 {
		t.Fatal("Reset left history")
	}
	if m.DirtyFingerprint().Species() != 0 {
		t.Fatal("Reset left fingerprint")
	}
	// Matrix is reusable after reset.
	m.Add(Vote{Item: 1, Label: Dirty})
	if m.Nominal() != 1 {
		t.Fatal("matrix unusable after reset")
	}
}

func TestNewMatrixPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMatrix(-1) did not panic")
		}
	}()
	NewMatrix(-1)
}

// TestNumWorkersSparseIDs: the worker bitset must count negative and huge
// IDs (hand-written vote logs) via the sparse fallback without ballooning,
// and a reset set must count afresh.
func TestNumWorkersSparseIDs(t *testing.T) {
	var s WorkerSet
	for _, w := range []int{0, 0, -5, -5, 1 << 40, 1 << 40, 7, -9} {
		s.Add(w)
	}
	if got := s.Len(); got != 5 {
		t.Fatalf("Len = %d, want 5 (0, -5, 1<<40, 7, -9)", got)
	}
	if len(s.bits) != 1 {
		t.Fatalf("bitset grew to %d words for dense IDs 0 and 7", len(s.bits))
	}
	s.Reset()
	if got := s.Len(); got != 0 {
		t.Fatalf("Len after reset = %d", got)
	}
	s.Add(-5)
	s.Add(2)
	if got := s.Len(); got != 2 {
		t.Fatalf("Len after reuse = %d, want 2", got)
	}
}
