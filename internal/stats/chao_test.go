package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestCoverage(t *testing.T) {
	tests := []struct {
		name       string
		singletons int64
		n          int64
		want       float64
	}{
		{"no observations", 0, 0, 0},
		{"no singletons", 0, 100, 1},
		{"paper example 1", 30, 180, 1 - 30.0/180},
		{"all singletons", 50, 50, 0},
		{"corrupt clamps", 80, 50, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Coverage(tt.singletons, tt.n); math.Abs(got-tt.want) > 1e-12 {
				t.Fatalf("Coverage(%d,%d) = %v, want %v", tt.singletons, tt.n, got, tt.want)
			}
		})
	}
}

// TestChao92PaperExample1 reproduces the arithmetic of Example 1 (§3.2.1):
// c=83, f1=30, n⁺=180 give a remaining-error estimate of ≈16.6 under the
// no-skew form.
func TestChao92PaperExample1(t *testing.T) {
	f := Freq{0}
	f.Add(1, 30)
	// The remaining mass of the fingerprint is arbitrary for the no-skew
	// estimate as long as n is fixed; fill to match n = 180 with doubletons
	// and heavier classes: 83 species totalling 180 observations.
	// 30 singletons leave 53 species and 150 observations: use 23
	// doubletons and 30 species at ~3.47 — instead pin exact integers:
	// 30×1 + 23×2 + 26×3 + 4×6.5 is not integral either, so assemble
	// directly: 30×1 + 24×2 + 25×3 + 3×7 + 1×6 = 30+48+75+21+6 = 180,
	// species = 30+24+25+3+1 = 83.
	f.Add(2, 24)
	f.Add(3, 25)
	f.Add(7, 3)
	f.Add(6, 1)
	if f.Species() != 83 || f.Mass() != 180 {
		t.Fatalf("fingerprint setup wrong: c=%d n=%d", f.Species(), f.Mass())
	}
	r := Chao92NoSkew(Chao92Input{C: 83, F: f, N: 180})
	remaining := r.Estimate - 83
	if math.Abs(remaining-16.6) > 0.1 {
		t.Fatalf("remaining = %v, want ≈16.6", remaining)
	}
}

// TestChao92PaperExample2 reproduces Example 2: with 1% false positives the
// counts become c=102, f1=46, n⁺=208 and the total estimate inflates to
// ≈131 (the paper's 30% overestimate of the 100 true errors).
func TestChao92PaperExample2(t *testing.T) {
	got := 102 / (1 - 46.0/208)
	if math.Abs(got-131) > 1 {
		t.Fatalf("example-2 arithmetic: %v, want ≈131", got)
	}
	f := Freq{0}
	f.Add(1, 46)
	// 56 more species carrying 162 observations: 52×3 + 4×1.5 — assemble
	// integrally: 46×1 + 50×3 + 6×2 = 46+150+12 = 208, species 102.
	f.Add(3, 50)
	f.Add(2, 6)
	if f.Species() != 102 || f.Mass() != 208 {
		t.Fatalf("fingerprint setup wrong: c=%d n=%d", f.Species(), f.Mass())
	}
	r := Chao92NoSkew(Chao92Input{C: 102, F: f, N: 208})
	if math.Abs(r.Estimate-131) > 1 {
		t.Fatalf("estimate = %v, want ≈131", r.Estimate)
	}
}

func TestChao92Degenerate(t *testing.T) {
	if r := Chao92(Chao92Input{}); r.Estimate != 0 {
		t.Fatalf("empty input estimate = %v", r.Estimate)
	}
	f := Freq{0, 5} // every observation a singleton
	r := Chao92(Chao92Input{C: 5, F: f, N: 5})
	if !r.Saturated {
		t.Fatal("zero-coverage input not flagged as saturated")
	}
	if math.IsInf(r.Estimate, 0) || math.IsNaN(r.Estimate) {
		t.Fatalf("saturated estimate not finite: %v", r.Estimate)
	}
	if r.Estimate < 5 {
		t.Fatalf("saturated estimate %v below observed species", r.Estimate)
	}
}

func TestChao92AtLeastObserved(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	prop := func(seed uint64) bool {
		// Random plausible fingerprints: some species with counts 1..6.
		f := Freq{0}
		c := int64(0)
		for j := 1; j <= 6; j++ {
			k := int64(rng.IntN(20))
			if k > 0 {
				f.Add(j, k)
				c += k
			}
		}
		if c == 0 {
			return true
		}
		in := Chao92Input{C: c, F: f, N: f.Mass()}
		full := Chao92(in)
		noskew := Chao92NoSkew(in)
		if full.Saturated {
			return full.Estimate >= float64(c)
		}
		// Estimates never fall below the observed species count, and the
		// skew correction only adds mass.
		return full.Estimate >= float64(c)-1e-9 && full.Estimate >= noskew.Estimate-1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCV2(t *testing.T) {
	cv2 := func(c int64, f Freq, n int64) float64 { return CV2FromStats(c, f.Singletons(), f.PairSum(), n) }
	// A perfectly homogeneous sample (all doubletons) has γ̂² = 0.
	f := Freq{0, 0, 10}
	if got := cv2(10, f, 20); got != 0 {
		t.Fatalf("homogeneous CV2 = %v", got)
	}
	// Skewed fingerprints produce positive γ̂².
	skewed := Freq{0, 30, 0, 0, 0, 0, 0, 0, 0, 0, 5} // 30 singletons, 5 ten-times
	if got := cv2(35, skewed, 80); got <= 0 {
		t.Fatalf("skewed CV2 = %v, want > 0", got)
	}
	if got := cv2(5, Freq{0, 5}, 1); got != 0 {
		t.Fatalf("n≤1 CV2 = %v", got)
	}
	// Zero coverage (all singletons) must not NaN.
	if got := cv2(5, Freq{0, 5}, 5); got != 0 {
		t.Fatalf("zero-coverage CV2 = %v", got)
	}
}

func TestChao92SkewCorrectionIncreases(t *testing.T) {
	f := Freq{0, 40, 5, 2, 0, 0, 0, 0, 2} // strongly skewed
	in := Chao92Input{C: f.Species(), F: f, N: f.Mass()}
	full := Chao92(in)
	noskew := Chao92NoSkew(in)
	if full.Estimate < noskew.Estimate {
		t.Fatalf("skew correction decreased the estimate: %v < %v", full.Estimate, noskew.Estimate)
	}
	if full.CV2 <= 0 {
		t.Fatalf("expected positive CV2, got %v", full.CV2)
	}
}

func TestChao84(t *testing.T) {
	f := Freq{0, 4, 2} // f1=4, f2=2
	if got := Chao84(6, f); math.Abs(got-(6+16.0/4)) > 1e-12 {
		t.Fatalf("Chao84 = %v", got)
	}
	// f2 = 0 uses the bias-corrected form c + f1(f1−1)/2.
	f0 := Freq{0, 3}
	if got := Chao84(3, f0); math.Abs(got-(3+3)) > 1e-12 {
		t.Fatalf("Chao84 bias-corrected = %v", got)
	}
}

func TestJackknife(t *testing.T) {
	f := Freq{0, 4, 2}
	if got := Jackknife1(6, f, 8); math.Abs(got-(6+4*7.0/8)) > 1e-12 {
		t.Fatalf("Jackknife1 = %v", got)
	}
	if got := Jackknife1(6, f, 0); got != 6 {
		t.Fatalf("Jackknife1 with n=0 = %v", got)
	}
	j2 := Jackknife2(6, f, 8)
	want := 6 + 4*(2*8.0-3)/8 - 2*(8.0-2)*(8.0-2)/(8*7)
	if math.Abs(j2-want) > 1e-12 {
		t.Fatalf("Jackknife2 = %v, want %v", j2, want)
	}
	if got := Jackknife2(6, f, 1); got != Jackknife1(6, f, 1) {
		t.Fatalf("Jackknife2 with n=1 should fall back: %v", got)
	}
}

// TestChao92RecoversTrueRichness simulates the estimator's core guarantee:
// sampling species uniformly with replacement, the estimate approaches the
// true species count as coverage grows.
func TestChao92RecoversTrueRichness(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	const trueSpecies = 200
	counts := make([]int, trueSpecies)
	for draws := 0; draws < 1200; draws++ {
		counts[rng.IntN(trueSpecies)]++
	}
	f := NewFreqFromCounts(counts)
	in := Chao92Input{C: f.Species(), F: f, N: f.Mass()}
	r := Chao92(in)
	if math.Abs(r.Estimate-trueSpecies) > 0.15*trueSpecies {
		t.Fatalf("estimate %v not within 15%% of %d (coverage %v)", r.Estimate, trueSpecies, r.Coverage)
	}
}

func TestACE(t *testing.T) {
	// Empty fingerprint.
	if got := ACE(Freq{0}); got != 0 {
		t.Fatalf("empty ACE = %v", got)
	}
	// Abundant-only fingerprint: estimate equals observed.
	abundant := Freq{0}
	abundant.Add(15, 7)
	if got := ACE(abundant); got != 7 {
		t.Fatalf("abundant-only ACE = %v", got)
	}
	// All-singleton rare group falls back to the Chao84 bound, finite.
	singles := Freq{0, 12}
	got := ACE(singles)
	if math.IsInf(got, 0) || math.IsNaN(got) || got < 12 {
		t.Fatalf("all-singleton ACE = %v", got)
	}
	// A homogeneous sample with good coverage estimates close to c.
	homog := Freq{0, 0, 0, 20} // 20 species seen 3 times each
	if got := ACE(homog); math.Abs(got-20) > 1 {
		t.Fatalf("homogeneous ACE = %v, want ≈20", got)
	}
}

func TestACERecoversTrueRichness(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 22))
	const trueSpecies = 150
	counts := make([]int, trueSpecies)
	for draws := 0; draws < 900; draws++ {
		counts[rng.IntN(trueSpecies)]++
	}
	f := NewFreqFromCounts(counts)
	got := ACE(f)
	if math.Abs(got-trueSpecies) > 0.2*trueSpecies {
		t.Fatalf("ACE %v not within 20%% of %d", got, trueSpecies)
	}
}
