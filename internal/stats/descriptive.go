package stats

import "math"

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation, or 0 for fewer than two
// samples.
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// SRMSE computes the scaled root-mean-square error of Section 6.2:
//
//	SRMSE = (1/D) · sqrt( (1/r) Σ (D̂_i − D)² )
//
// where D is the ground truth and estimates holds the r per-permutation
// estimates D̂_i. The scaling by D makes widely varying estimators
// comparable. It returns 0 when estimates is empty, and +Inf when D = 0 but
// the estimates are not all zero.
func SRMSE(estimates []float64, truth float64) float64 {
	if len(estimates) == 0 {
		return 0
	}
	var s float64
	for _, e := range estimates {
		d := e - truth
		s += d * d
	}
	rmse := math.Sqrt(s / float64(len(estimates)))
	if truth == 0 {
		if rmse == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return rmse / truth
}

// Clamp restricts v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// MeanSeries averages r series point-wise: given rows[i][t] (one row per
// permutation), it returns mean[t] over i. Rows must have equal length.
func MeanSeries(rows [][]float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	out := make([]float64, len(rows[0]))
	for _, row := range rows {
		for t, v := range row {
			out[t] += v
		}
	}
	for t := range out {
		out[t] /= float64(len(rows))
	}
	return out
}

// StdSeries returns the point-wise population standard deviation of the
// rows, the ±1-std band the paper draws around EXTRAPOL.
func StdSeries(rows [][]float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	out := make([]float64, len(rows[0]))
	col := make([]float64, len(rows))
	for t := range out {
		for i, row := range rows {
			col[i] = row[t]
		}
		out[t] = Std(col)
	}
	return out
}
