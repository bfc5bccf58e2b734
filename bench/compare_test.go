package main

import (
	"io"
	"math"
	"path/filepath"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	lower := specMetric{Name: "x_ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "x_per_s", Better: "higher", Bound: 0.10}
	zero := specMetric{Name: "error_ratio", Better: "lower", Bound: 0}
	floored := specMetric{Name: "setup_s", Better: "lower", Bound: 0.10, BoundFloor: 0.05}
	for _, c := range []struct {
		name   string
		m      specMetric
		a, b   []float64
		want   string
		worseP float64
	}{
		{"steady and equal", lower, []float64{10, 10.1, 9.9}, []float64{10, 10.05, 9.95}, "ok", 0},
		{"steady and slower", lower, []float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, "REGRESSION", 0.2},
		{"noisy and slower", lower, []float64{5, 10, 15}, []float64{6, 12, 18}, "unresolved", 0.2},
		{"noisy but every run faster", lower, []float64{20, 30, 40}, []float64{5, 10, 15}, "ok (every B run better)", -2.0 / 3},
		{"throughput drop", higher, []float64{100, 101, 99}, []float64{80, 81, 79}, "REGRESSION", 0.2},
		{"throughput gain", higher, []float64{100, 101, 99}, []float64{120, 121, 119}, "ok (every B run better)", -0.2},
		{"errors appear", zero, []float64{0, 0, 0}, []float64{0, 0.01, 0.02}, "REGRESSION", math.Inf(1)},
		{"no errors", zero, []float64{0, 0, 0}, []float64{0, 0, 0}, "ok", 0},
		// 0.05 s is 50% of a 0.1 s set-up: +40% is within it, +60% is not.
		{"short set-up within the floor", floored, []float64{0.1, 0.1, 0.1}, []float64{0.14, 0.14, 0.14}, "ok", 0.4},
		{"short set-up beyond the floor", floored, []float64{0.1, 0.1, 0.1}, []float64{0.16, 0.16, 0.16}, "REGRESSION", 0.6},
		// For a 2 s set-up the 10% share is the larger bound.
		{"long set-up", floored, []float64{2, 2, 2}, []float64{2.3, 2.3, 2.3}, "REGRESSION", 0.15},
	} {
		j := judge(c.m, c.a, c.b)
		if j.verdict != c.want || math.Abs(j.worse-c.worseP) > 1e-9 && !math.IsInf(c.worseP, 1) {
			t.Errorf("%s: got %q worse=%v, want %q worse=%v", c.name, j.verdict, j.worse, c.want, c.worseP)
		}
	}
}

// An -out file written by appendRun reads back, absent metrics included, and
// two identical sets compare clean.
func TestCompareRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "runs.jsonl")
	for i := 0; i < 3; i++ {
		res := &result{Workload: "ingest", Correct: true, Attempted: 10, EndToEnd: map[string]metric{
			"ingest_p50_ms": {Value: 1 + float64(i)/100, Unit: "ms", N: 5},
			"ingest_p90_ms": {Value: math.NaN(), Unit: "ms"},
		}}
		if err := appendRun(path, 1, 10, false, []*result{res}); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := readRuns(path)
	if err != nil || len(runs) != 3 {
		t.Fatalf("readRuns: %d runs, %v", len(runs), err)
	}
	if v := values(runs, "ingest", "ingest_p50_ms"); len(v) != 3 || v[2] != 1.02 {
		t.Errorf("values = %v", v)
	}
	if v := values(runs, "ingest", "ingest_p90_ms"); len(v) != 0 {
		t.Errorf("absent metric read back as %v", v)
	}
	if code := compareFiles(io.Discard, path, path); code != 0 {
		t.Errorf("identical sets: exit %d", code)
	}
}

// Runs that differ in seed, run length or tracing are neither pooled nor
// compared: -compare exits 2.
func TestCompareRefusesMixedSettings(t *testing.T) {
	dir := t.TempDir()
	res := []*result{{Workload: "ingest", Correct: true, Attempted: 10, EndToEnd: map[string]metric{
		"ingest_p50_ms": {Value: 1, Unit: "ms", N: 5},
	}}}
	write := func(name string, seed uint64, seconds int, traced bool) string {
		path := filepath.Join(dir, name)
		if err := appendRun(path, seed, seconds, traced, res); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.jsonl", 1, 20, false)
	for _, c := range []struct {
		name    string
		seed    uint64
		seconds int
		traced  bool
	}{
		{"seed", 7, 20, false},
		{"seconds", 1, 10, false},
		{"traced", 1, 20, true},
	} {
		other := write(c.name+".jsonl", c.seed, c.seconds, c.traced)
		if code := compareFiles(io.Discard, base, other); code != 2 {
			t.Errorf("A and B differ in %s: exit %d, want 2", c.name, code)
		}
		// Within one set too: write appends.
		write("mixed-"+c.name+".jsonl", 1, 20, false)
		mixed := write("mixed-"+c.name+".jsonl", c.seed, c.seconds, c.traced)
		if code := compareFiles(io.Discard, mixed, base); code != 2 {
			t.Errorf("set A mixes %s: exit %d, want 2", c.name, code)
		}
	}
}
