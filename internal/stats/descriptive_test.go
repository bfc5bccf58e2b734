package stats

import (
	"math"
	"testing"
)

func TestMeanStd(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Std([]float64{5}); got != 0 {
		t.Fatalf("Std of one sample = %v", got)
	}
	if got := Std([]float64{2, 4, 4, 4, 5, 5, 7, 9}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Std = %v, want 2", got)
	}
}

func TestSRMSE(t *testing.T) {
	// Paper definition: (1/D)·sqrt((1/r)Σ(D̂−D)²).
	ests := []float64{110, 90}
	if got := SRMSE(ests, 100); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("SRMSE = %v, want 0.1", got)
	}
	if got := SRMSE(nil, 100); got != 0 {
		t.Fatalf("SRMSE(nil) = %v", got)
	}
	if got := SRMSE([]float64{0, 0}, 0); got != 0 {
		t.Fatalf("SRMSE all-zero truth-zero = %v", got)
	}
	if got := SRMSE([]float64{5}, 0); !math.IsInf(got, 1) {
		t.Fatalf("SRMSE with zero truth = %v, want +Inf", got)
	}
	// Perfect estimates give zero error.
	if got := SRMSE([]float64{42, 42, 42}, 42); got != 0 {
		t.Fatalf("perfect SRMSE = %v", got)
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("RelativeError = %v", got)
	}
	if got := RelativeError(0, 0); got != 0 {
		t.Fatalf("RelativeError(0,0) = %v", got)
	}
	if got := RelativeError(1, 0); !math.IsInf(got, 1) {
		t.Fatalf("RelativeError(1,0) = %v", got)
	}
}

func TestClamp(t *testing.T) {
	if got := Clamp(5, 0, 10); got != 5 {
		t.Fatalf("Clamp mid = %v", got)
	}
	if got := Clamp(-1, 0, 10); got != 0 {
		t.Fatalf("Clamp low = %v", got)
	}
	if got := Clamp(11, 0, 10); got != 10 {
		t.Fatalf("Clamp high = %v", got)
	}
}

func TestMeanSeries(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {3, 4, 5}}
	got := MeanSeries(rows)
	want := []float64{2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MeanSeries[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if MeanSeries(nil) != nil {
		t.Fatal("MeanSeries(nil) should be nil")
	}
}

func TestStdSeries(t *testing.T) {
	rows := [][]float64{{1, 10}, {3, 10}}
	got := StdSeries(rows)
	if math.Abs(got[0]-1) > 1e-12 {
		t.Fatalf("StdSeries[0] = %v, want 1", got[0])
	}
	if got[1] != 0 {
		t.Fatalf("StdSeries[1] = %v, want 0", got[1])
	}
	if StdSeries(nil) != nil {
		t.Fatal("StdSeries(nil) should be nil")
	}
}

// RelativeError returns |est − truth| / truth, or +Inf when truth = 0 and
// est ≠ 0.
func RelativeError(est, truth float64) float64 {
	if truth == 0 {
		if est == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(est-truth) / truth
}
