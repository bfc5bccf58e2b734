package heuristic

import (
	"slices"
	"testing"

	"dqm/internal/xrand"
)

func TestSyntheticPerfect(t *testing.T) {
	r := xrand.New(1)
	dirty := []int{5, 10, 15, 20}
	s := NewSynthetic(100, dirty, 30, 0, r)
	if len(s.RH) != 30 || len(s.RHC) != 70 {
		t.Fatalf("window sizes %d/%d", len(s.RH), len(s.RHC))
	}
	// A perfect heuristic routes every error into the window.
	for _, d := range dirty {
		if !slices.Contains(s.RH, d) {
			t.Fatalf("perfect heuristic missed error %d", d)
		}
	}
}

func TestSyntheticErrorRate(t *testing.T) {
	r := xrand.New(2)
	dirty := make([]int, 100)
	for i := range dirty {
		dirty[i] = i
	}
	s := NewSynthetic(1000, dirty, 300, 0.5, r)
	caught := 0
	for _, d := range dirty {
		if slices.Contains(s.RH, d) {
			caught++
		}
	}
	if caught != 50 {
		t.Fatalf("50%%-error heuristic caught %d/100", caught)
	}
}

func TestSyntheticPartitionsDisjointAndComplete(t *testing.T) {
	r := xrand.New(3)
	s := NewSynthetic(200, []int{1, 2, 3}, 40, 0.3, r)
	seen := make(map[int]int)
	for _, id := range s.RH {
		seen[id]++
	}
	for _, id := range s.RHC {
		seen[id]++
	}
	if len(seen) != 200 {
		t.Fatalf("partition covers %d items", len(seen))
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("item %d appears %d times", id, c)
		}
	}
}

func TestSyntheticPanics(t *testing.T) {
	r := xrand.New(4)
	for _, fn := range []func(){
		func() { NewSynthetic(10, nil, 0, 0, r) },
		func() { NewSynthetic(10, nil, 11, 0, r) },
		func() { NewSynthetic(10, nil, 5, -0.1, r) },
		func() { NewSynthetic(10, nil, 5, 1.1, r) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid synthetic config did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestEpsilonSamplerExtremes(t *testing.T) {
	r := xrand.New(5)
	rh := []int{0, 1, 2, 3, 4}
	rhc := []int{5, 6, 7, 8, 9}

	inSet := func(ids []int, set []int) bool {
		m := make(map[int]bool, len(set))
		for _, s := range set {
			m[s] = true
		}
		for _, id := range ids {
			if !m[id] {
				return false
			}
		}
		return true
	}

	s0 := NewEpsilonSampler(rh, rhc, 0, r)
	for i := 0; i < 50; i++ {
		if !inSet(s0.Draw(3), rh) {
			t.Fatal("ε=0 drew from the complement")
		}
	}
	s1 := NewEpsilonSampler(rh, rhc, 1, r)
	for i := 0; i < 50; i++ {
		if !inSet(s1.Draw(3), rhc) {
			t.Fatal("ε=1 drew from the window")
		}
	}
}

func TestEpsilonSamplerDistinctAndSized(t *testing.T) {
	r := xrand.New(6)
	rh := []int{0, 1, 2, 3, 4, 5, 6, 7}
	rhc := []int{8, 9, 10, 11}
	s := NewEpsilonSampler(rh, rhc, 0.3, r)
	for i := 0; i < 200; i++ {
		got := s.Draw(5)
		if len(got) != 5 {
			t.Fatalf("Draw(5) returned %d items", len(got))
		}
		seen := make(map[int]bool)
		for _, id := range got {
			if seen[id] {
				t.Fatalf("duplicate item %d in draw", id)
			}
			seen[id] = true
		}
	}
	if got := s.Draw(0); got != nil {
		t.Fatalf("Draw(0) = %v", got)
	}
}

func TestEpsilonSamplerRouting(t *testing.T) {
	r := xrand.New(7)
	rh := make([]int, 100)
	rhc := make([]int, 100)
	for i := range rh {
		rh[i] = i
		rhc[i] = 100 + i
	}
	s := NewEpsilonSampler(rh, rhc, 0.25, r)
	fromC := 0
	const draws, k = 2000, 4
	for i := 0; i < draws; i++ {
		for _, id := range s.Draw(k) {
			if id >= 100 {
				fromC++
			}
		}
	}
	rate := float64(fromC) / float64(draws*k)
	if rate < 0.2 || rate > 0.3 {
		t.Fatalf("ε=0.25 routed %.3f of draws to the complement", rate)
	}
}

func TestEpsilonSamplerCapsAtSideSizes(t *testing.T) {
	r := xrand.New(8)
	s := NewEpsilonSampler([]int{1, 2}, []int{3}, 0.5, r)
	for i := 0; i < 50; i++ {
		got := s.Draw(10)
		if len(got) > 3 {
			t.Fatalf("drew %d items from a 3-item space", len(got))
		}
	}
}

func TestEpsilonSamplerPanics(t *testing.T) {
	r := xrand.New(9)
	for _, fn := range []func(){
		func() { NewEpsilonSampler(nil, nil, 0.5, r) },
		func() { NewEpsilonSampler([]int{1}, nil, -0.1, r) },
		func() { NewEpsilonSampler([]int{1}, nil, 1.1, r) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid sampler config did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestUniformEpsilon(t *testing.T) {
	if got := UniformEpsilon(250, 750); got != 0.75 {
		t.Fatalf("UniformEpsilon = %v", got)
	}
	if got := UniformEpsilon(0, 0); got != 0 {
		t.Fatalf("UniformEpsilon empty = %v", got)
	}
}

// UniformEpsilon returns the ε that makes the sampler equivalent to uniform
// sampling over all items: |R_H^c| / |R|.
func UniformEpsilon(rhLen, rhcLen int) float64 {
	total := rhLen + rhcLen
	if total == 0 {
		return 0
	}
	return float64(rhcLen) / float64(total)
}
