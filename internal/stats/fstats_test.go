package stats

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewFreqFromCounts(t *testing.T) {
	tests := []struct {
		name   string
		counts []int
		want   Freq
	}{
		{"empty", nil, Freq{0}},
		{"all zero", []int{0, 0}, Freq{0}},
		{"mixed", []int{1, 1, 2, 5, 0}, Freq{0, 2, 1, 0, 0, 1}},
		{"negative ignored", []int{-3, 1}, Freq{0, 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := NewFreqFromCounts(tt.counts)
			if !reflect.DeepEqual(got, tt.want) {
				t.Fatalf("got %v, want %v", got, tt.want)
			}
		})
	}
}

func TestFreqAccessors(t *testing.T) {
	f := NewFreqFromCounts([]int{1, 1, 1, 2, 2, 7})
	if got := f.F(1); got != 3 {
		t.Fatalf("f1 = %d, want 3", got)
	}
	if got := f.F(2); got != 2 {
		t.Fatalf("f2 = %d, want 2", got)
	}
	if got := f.F(0); got != 0 {
		t.Fatalf("f0 = %d, want 0", got)
	}
	if got := f.F(100); got != 0 {
		t.Fatalf("f100 = %d, want 0", got)
	}
	if got := f.Singletons(); got != 3 {
		t.Fatalf("singletons = %d, want 3", got)
	}
	if got := f.Doubletons(); got != 2 {
		t.Fatalf("doubletons = %d, want 2", got)
	}
	if got := f.Species(); got != 6 {
		t.Fatalf("species = %d, want 6", got)
	}
	if got := f.Mass(); got != 1+1+1+2+2+7 {
		t.Fatalf("mass = %d, want 14", got)
	}
	// PairSum = Σ j(j-1)f_j = 0*3 + 2*2 + 42*1 = 46.
	if got := f.PairSum(); got != 46 {
		t.Fatalf("pairsum = %d, want 46", got)
	}
}

func TestFreqAddAndPromote(t *testing.T) {
	f := Freq{0}
	f.Add(1, 1)
	f.Add(1, 1)
	f.Promote(1) // one singleton becomes a doubleton
	if f.F(1) != 1 || f.F(2) != 1 {
		t.Fatalf("after promote: %v", f)
	}
	f.Promote(2)
	if f.F(2) != 0 || f.F(3) != 1 {
		t.Fatalf("after second promote: %v", f)
	}
}

func TestFreqAddPanicsOnZeroClass(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(0, …) did not panic")
		}
	}()
	f := Freq{0}
	f.Add(0, 1)
}

func TestFreqPromotePanicsOnEmptyClass(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Promote on empty class did not panic")
		}
	}()
	f := Freq{0, 0, 1}
	f.Promote(1)
}

// TestFreqShift pins RunningFreq.Shifted, the vChao92 shift f'_j = f_{j+s},
// on a small fingerprint: the s lowest classes drop out, and a shift past
// the largest class empties it.
func TestFreqShift(t *testing.T) {
	rf := NewRunningFreq(Freq{0, 5, 3, 2, 1}) // f1..f4
	tests := []struct {
		s    int
		want ShiftedStats
	}{
		// f' = {f1:5 f2:3 f3:2 f4:1}
		{0, ShiftedStats{F1: 5, Species: 11, Mass: 21, PairSum: 30}},
		// f' = {f1:3 f2:2 f3:1}
		{1, ShiftedStats{F1: 3, Species: 6, Mass: 10, PairSum: 10, DroppedCount: 5, DroppedMass: 5}},
		// f' = {f1:1}
		{3, ShiftedStats{F1: 1, Species: 1, Mass: 1, DroppedCount: 10, DroppedMass: 17}},
		{10, ShiftedStats{DroppedCount: 11, DroppedMass: 21}},
	}
	for _, tt := range tests {
		if got := rf.Shifted(tt.s); got != tt.want {
			t.Fatalf("shift %d = %+v, want %+v", tt.s, got, tt.want)
		}
	}
}

func TestFreqShiftPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative shift did not panic")
		}
	}()
	rf := NewRunningFreq(Freq{0, 1})
	rf.Shifted(-1)
}

// TestFreqDropped pins the species and mass a shift discards, the two
// adjustments of n that V-CHAO chooses between.
func TestFreqDropped(t *testing.T) {
	rf := NewRunningFreq(Freq{0, 5, 3, 2})
	if got := rf.Shifted(1).DroppedCount; got != 5 {
		t.Fatalf("dropped count s=1: %d", got)
	}
	if got := rf.Shifted(2).DroppedCount; got != 8 {
		t.Fatalf("dropped count s=2: %d", got)
	}
	if got := rf.Shifted(2).DroppedMass; got != 5+6 {
		t.Fatalf("dropped mass s=2: %d", got)
	}
}

func TestFreqCountsRoundTrip(t *testing.T) {
	prop := func(raw []uint8) bool {
		counts := make([]int, len(raw))
		for i, r := range raw {
			counts[i] = int(r % 9) // counts 0..8
		}
		f := NewFreqFromCounts(counts)
		// Species = number of non-zero counts; Mass = sum of counts; and f_j
		// counts exactly the counts equal to j, so the fingerprint gives the
		// multiset of non-zero counts back.
		var wantC, wantN int64
		wantF := make([]int64, 9)
		for _, c := range counts {
			if c > 0 {
				wantC++
				wantN += int64(c)
				wantF[c]++
			}
		}
		if f.Species() != wantC || f.Mass() != wantN {
			return false
		}
		for j := 1; j < len(wantF); j++ {
			if f.F(j) != wantF[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFreqString(t *testing.T) {
	f := NewFreqFromCounts([]int{1, 1, 3})
	if got := f.String(); got != "{f1:2 f3:1}" {
		t.Fatalf("String() = %q", got)
	}
	if got := (Freq{0}).String(); got != "{}" {
		t.Fatalf("empty String() = %q", got)
	}
}

func TestFreqCloneIndependent(t *testing.T) {
	f := NewFreqFromCounts([]int{1, 2})
	c := f.Clone()
	c.Add(1, 5)
	if f.F(1) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

// TestPromoteConsistentWithRebuild drives random promote sequences and
// checks the incremental ledger equals a from-scratch rebuild.
func TestPromoteConsistentWithRebuild(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	counts := make([]int, 50)
	f := Freq{0}
	for step := 0; step < 2000; step++ {
		i := rng.IntN(len(counts))
		if counts[i] == 0 {
			counts[i] = 1
			f.Add(1, 1)
		} else {
			f.Promote(counts[i])
			counts[i]++
		}
		if step%100 == 0 {
			want := NewFreqFromCounts(counts)
			for j := 1; j < len(want) || j < len(f); j++ {
				if f.F(j) != want.F(j) {
					t.Fatalf("step %d: f%d = %d, want %d", step, j, f.F(j), want.F(j))
				}
			}
		}
	}
}
