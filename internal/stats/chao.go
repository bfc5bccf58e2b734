package stats

import "math"

// Coverage returns the Good–Turing sample coverage estimate
// Ĉ = 1 − f₁/n (Equation 2). The coverage is the probability mass of the
// species already observed; f₁/n estimates the mass still unseen.
//
// Edge cases: with no observations the coverage is defined as 0 (nothing is
// covered); the result is clamped to [0, 1] because a corrupted fingerprint
// with f₁ > n must not produce a negative coverage.
func Coverage(singletons, n int64) float64 {
	if n <= 0 {
		return 0
	}
	c := 1 - float64(singletons)/float64(n)
	if c < 0 {
		return 0
	}
	if c > 1 {
		return 1
	}
	return c
}

// CV2FromStats returns the squared coefficient-of-variation estimate γ̂² of
// Equation 5 from f₁ and the pair sum Σ j(j−1)f_j:
//
//	γ̂² = max( (c/Ĉ) · Σ j(j−1)f_j / (n(n−1)) − 1, 0 )
//
// It measures the skew of the species abundance distribution; γ̂² = 0
// corresponds to the homogeneous (no-skew) model.
func CV2FromStats(c, f1, pairSum, n int64) float64 {
	if n <= 1 {
		return 0
	}
	cov := Coverage(f1, n)
	if cov == 0 {
		return 0
	}
	g := float64(c) / cov * float64(pairSum) / (float64(n) * float64(n-1))
	g -= 1
	if g < 0 || math.IsNaN(g) {
		return 0
	}
	return g
}

// Chao92Input bundles the three quantities the Chao92 family consumes. The
// caller chooses what plays the role of c, f and n: observed unique errors
// with positive-vote statistics (Section 3), or consensus switches with the
// switch fingerprint (Section 4).
type Chao92Input struct {
	// C is the number of distinct species observed (c in the paper). The
	// paper sometimes decouples it from the fingerprint (e.g. vChao92 uses
	// c_majority with shifted f-statistics), hence it is explicit.
	C int64
	// F is the frequency fingerprint.
	F Freq
	// N is the number of observations (n⁺ for error estimation, n_switch for
	// switch estimation).
	N int64
}

// Chao92Result carries the estimate plus its intermediates for logging and
// testing.
type Chao92Result struct {
	Estimate  float64 // D̂, the estimated total number of species
	Coverage  float64 // Ĉ
	CV2       float64 // γ̂²
	Saturated bool    // true when Ĉ = 0 and the estimate was capped
}

// chao92MaxBlowup bounds the estimate when the sample coverage collapses to
// zero (every observation a singleton). The estimator is undefined there; the
// paper's simulations simply report very large values. We cap at C·(N+1) so
// downstream averaging stays finite, and flag the saturation.
const chao92MaxBlowup = 1 << 20

// Chao92 computes the full estimator of Equation 4:
//
//	D̂ = c/Ĉ + f₁·γ̂²/Ĉ
//
// where Ĉ = 1 − f₁/n and γ̂² is CV2. With γ̂² = 0 this degrades to the
// homogeneous estimator D̂_noskew = c/Ĉ (Equations 1–3).
func Chao92(in Chao92Input) Chao92Result {
	return Chao92FromStats(Chao92Stats{
		C: in.C, F1: in.F.Singletons(), PairSum: in.F.PairSum(), N: in.N,
	})
}

// Chao92Stats is the sufficient statistic of the Chao92 family: the estimator
// reads nothing from the fingerprint beyond f₁ and Σ j(j−1)f_j. Callers that
// maintain these incrementally (RunningFreq) skip the fingerprint walks
// entirely.
type Chao92Stats struct {
	C       int64 // distinct species observed
	F1      int64 // singleton count f₁
	PairSum int64 // Σ j(j−1)·f_j
	N       int64 // observation count
}

// Chao92FromStats computes the full estimator from the sufficient statistic.
// Chao92 delegates here, so the Freq-walking and incremental paths share one
// float expression and agree bit for bit.
func Chao92FromStats(in Chao92Stats) Chao92Result {
	if in.C <= 0 || in.N <= 0 {
		return Chao92Result{}
	}
	cov := Coverage(in.F1, in.N)
	if cov == 0 {
		// Zero coverage: every observation is a singleton; the estimate
		// diverges. Report a large, finite, flagged value.
		return Chao92Result{
			Estimate:  float64(in.C) * float64(minI64(in.N+1, chao92MaxBlowup)),
			Coverage:  0,
			Saturated: true,
		}
	}
	cv2 := CV2FromStats(in.C, in.F1, in.PairSum, in.N)
	est := float64(in.C)/cov + float64(in.F1)*cv2/cov
	return Chao92Result{Estimate: est, Coverage: cov, CV2: cv2}
}

// Chao92NoSkew computes D̂_noskew = c/Ĉ (Equation 3), the homogeneous-model
// estimator, also used by the paper as D̂_GT in Section 5.2.
func Chao92NoSkew(in Chao92Input) Chao92Result {
	r := Chao92(in)
	if r.Saturated {
		return r
	}
	r.Estimate = float64(in.C) / r.Coverage
	return r
}

// Chao92NoSkewFromStats is Chao92NoSkew over the sufficient statistic.
func Chao92NoSkewFromStats(in Chao92Stats) Chao92Result {
	r := Chao92FromStats(in)
	if r.Saturated {
		return r
	}
	r.Estimate = float64(in.C) / r.Coverage
	return r
}

// Chao84 computes the earlier Chao1 (1984) lower-bound estimator
// D̂ = c + f₁²/(2·f₂), included as an additional baseline for the ablation
// benchmarks. When f₂ = 0 the bias-corrected form c + f₁(f₁−1)/2 is used.
func Chao84(c int64, f Freq) float64 {
	f1, f2 := float64(f.Singletons()), float64(f.Doubletons())
	if f2 > 0 {
		return float64(c) + f1*f1/(2*f2)
	}
	return float64(c) + f1*(f1-1)/2
}

// Jackknife1 computes the first-order jackknife estimator
// D̂ = c + f₁·(n−1)/n, another classical baseline.
func Jackknife1(c int64, f Freq, n int64) float64 {
	if n <= 0 {
		return float64(c)
	}
	return float64(c) + float64(f.Singletons())*float64(n-1)/float64(n)
}

// Jackknife2 computes the second-order jackknife estimator
// D̂ = c + f₁·(2n−3)/n − f₂·(n−2)²/(n(n−1)).
func Jackknife2(c int64, f Freq, n int64) float64 {
	if n <= 1 {
		return Jackknife1(c, f, n)
	}
	fn := float64(n)
	return float64(c) +
		float64(f.Singletons())*(2*fn-3)/fn -
		float64(f.Doubletons())*(fn-2)*(fn-2)/(fn*(fn-1))
}

// ACERareCutoff is the conventional rare-species threshold of the ACE
// estimator: species observed at most this many times form the rare group
// whose coverage is estimated.
const ACERareCutoff = 10

// ACE computes the abundance-based coverage estimator (Chao & Lee 1992,
// estimator 2), another member of the coverage family included as an
// ablation baseline:
//
//	D̂ = c_abund + c_rare/Ĉ_rare + (f₁/Ĉ_rare)·γ̂²_rare
//
// where the rare group holds species seen ≤ ACERareCutoff times. Falls back
// to Chao84-style behaviour when the rare group carries no mass.
func ACE(f Freq) float64 {
	var cRare, cAbund, nRare, pairRare int64
	for j := 1; j < len(f); j++ {
		if f[j] == 0 {
			continue
		}
		if j <= ACERareCutoff {
			cRare += f[j]
			nRare += int64(j) * f[j]
			pairRare += int64(j) * int64(j-1) * f[j]
		} else {
			cAbund += f[j]
		}
	}
	if cRare == 0 {
		return float64(cAbund)
	}
	cov := Coverage(f.Singletons(), nRare)
	if cov == 0 {
		// All rare species are singletons; degrade to the Chao84 lower
		// bound, which stays finite.
		return float64(cAbund) + Chao84(cRare, f)
	}
	var gamma float64
	if nRare > 1 {
		gamma = float64(cRare) / cov * float64(pairRare) / (float64(nRare) * float64(nRare-1))
		gamma -= 1
		if gamma < 0 || math.IsNaN(gamma) {
			gamma = 0
		}
	}
	return float64(cAbund) + float64(cRare)/cov + float64(f.Singletons())/cov*gamma
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
