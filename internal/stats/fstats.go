// Package stats implements the statistical substrate of the DQM paper:
// frequency statistics (the "data fingerprint"), Good–Turing sample coverage,
// the Chao92 estimator family, and the scaled error metric used in the
// sensitivity study.
//
// The species-estimation setting: n observations are drawn with replacement
// from an unknown population; c distinct species are observed; f_j counts the
// species seen exactly j times. Chao & Lee (1992) estimate the total number
// of species from (c, f, n). The paper maps "species" to distinct erroneous
// records (Section 3) and later to distinct consensus switches (Section 4).
package stats

import (
	"fmt"
	"strings"
)

// Freq holds the frequency statistics (f-statistics) of a sample: Freq[j] is
// f_j, the number of species observed exactly j times. Index 0 is unused and
// always zero.
type Freq []int64

// NewFreqFromCounts builds f-statistics from per-species observation counts.
// Species with a zero (or negative) count are ignored: they were never
// observed and therefore contribute to no frequency class.
func NewFreqFromCounts(counts []int) Freq {
	maxC := 0
	for _, c := range counts {
		if c > maxC {
			maxC = c
		}
	}
	f := make(Freq, maxC+1)
	for _, c := range counts {
		if c > 0 {
			f[c]++
		}
	}
	return f
}

// F returns f_j, tolerating out-of-range j.
func (f Freq) F(j int) int64 {
	if j < 1 || j >= len(f) {
		return 0
	}
	return f[j]
}

// Add increments f_j by delta, growing the slice as needed. It panics on
// j < 1. A pointer receiver is required because the slice may be reallocated.
func (f *Freq) Add(j int, delta int64) {
	if j < 1 {
		panic(fmt.Sprintf("stats: frequency class %d < 1", j))
	}
	for len(*f) <= j {
		*f = append(*f, 0)
	}
	(*f)[j] += delta
}

// Promote moves one species from class j to class j+1, the bookkeeping step
// when a species is re-observed. It panics if f_j is already zero, which
// would indicate a corrupted ledger.
func (f *Freq) Promote(j int) {
	if f.F(j) <= 0 {
		panic(fmt.Sprintf("stats: promote from empty frequency class %d", j))
	}
	(*f)[j]--
	f.Add(j+1, 1)
}

// Reset empties every frequency class in place, retaining the slice's
// capacity so streaming consumers can clear between replays without
// reallocating.
func (f *Freq) Reset() {
	if cap(*f) == 0 {
		*f = Freq{0}
		return
	}
	*f = (*f)[:1]
	(*f)[0] = 0
}

// Species returns c = Σ_j f_j, the number of distinct species observed.
func (f Freq) Species() int64 {
	var c int64
	for j := 1; j < len(f); j++ {
		c += f[j]
	}
	return c
}

// Mass returns n = Σ_j j·f_j, the total number of observations accounted for
// by the fingerprint.
func (f Freq) Mass() int64 {
	var n int64
	for j := 1; j < len(f); j++ {
		n += int64(j) * f[j]
	}
	return n
}

// Singletons returns f_1.
func (f Freq) Singletons() int64 { return f.F(1) }

// Doubletons returns f_2.
func (f Freq) Doubletons() int64 { return f.F(2) }

// PairSum returns Σ_j j·(j−1)·f_j, the numerator of the coefficient of
// variation estimate (Equation 5).
func (f Freq) PairSum() int64 {
	var s int64
	for j := 1; j < len(f); j++ {
		s += int64(j) * int64(j-1) * f[j]
	}
	return s
}

// Clone returns an independent copy.
func (f Freq) Clone() Freq {
	out := make(Freq, len(f))
	copy(out, f)
	return out
}

// String renders the non-zero classes compactly, e.g. "{f1:30 f2:12 f5:1}".
func (f Freq) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for j := 1; j < len(f); j++ {
		if f[j] == 0 {
			continue
		}
		if !first {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "f%d:%d", j, f[j])
		first = false
	}
	b.WriteByte('}')
	return b.String()
}
