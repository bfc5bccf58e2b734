package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: dqm/internal/wal
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkJournalAppend/never-8         	   12868	     11776 ns/op	        84.92 Mvotes/s	    5544 B/op	       0 allocs/op
BenchmarkJournalAppend/always-8        	     100	    157113 ns/op	         6.365 Mvotes/s	     332 B/op	       0 allocs/op
BenchmarkEstimatesCached/cached-8      	14905130	        78.00 ns/op	       0 B/op	       0 allocs/op
BenchmarkSessionIngest   	 1766679	       651.7 ns/op	  15428884 votes/s	      43 B/op	       0 allocs/op
BenchmarkHubEncodeOnce/subs=1-8   	  100000	      2083 ns/op	         1.000 encodes/version	  480012 events/s	     112 B/op	       2 allocs/op
PASS
ok  	dqm/internal/wal	12.3s
`

func TestParseBench(t *testing.T) {
	f, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 5 {
		t.Fatalf("parsed %d benchmarks, want 5: %v", len(f.Benchmarks), f.Benchmarks)
	}
	never, ok := f.Benchmarks["BenchmarkJournalAppend/never"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %v", f.Benchmarks)
	}
	if never.AllocsPerOp != 0 || never.BytesPerOp != 5544 || never.Metrics != nil {
		t.Errorf("never = %+v: want 5544 B/op, 0 allocs/op and no rate", never)
	}
	// A metric that is not a rate is kept; a rate, like ns/op, measures the
	// host and is dropped.
	enc := f.Benchmarks["BenchmarkHubEncodeOnce/subs=1"]
	if len(enc.Metrics) != 1 || enc.Metrics["encodes/version"] != 1 {
		t.Errorf("metrics %v: want only encodes/version", enc.Metrics)
	}
	// A name with no -P suffix parses as-is.
	if _, ok := f.Benchmarks["BenchmarkSessionIngest"]; !ok {
		t.Errorf("suffixless benchmark missing: %v", f.Benchmarks)
	}
}

// repeatedBench is one benchmark run five times (-count 5): a slow outlier,
// and one run that allocated.
const repeatedBench = `BenchmarkHubEncodeOnce/subs=1000-2   	  1000	    300000 ns/op	   1.0 encodes/version	     0 B/op	       0 allocs/op
BenchmarkHubEncodeOnce/subs=1000-2   	  1000	    430000 ns/op	   3.0 encodes/version	     0 B/op	       0 allocs/op
BenchmarkHubEncodeOnce/subs=1000-2   	  1000	    244000 ns/op	   1.0 encodes/version	    48 B/op	       1 allocs/op
BenchmarkHubEncodeOnce/subs=1000-2   	  1000	    310000 ns/op	   1.0 encodes/version	     0 B/op	       0 allocs/op
BenchmarkHubEncodeOnce/subs=1000-2   	  1000	    290000 ns/op	   2.0 encodes/version	     0 B/op	       0 allocs/op
`

// TestParseBenchRepeatedLines: a name repeated by -count keeps the median
// of its custom metrics and the largest B/op and allocs/op, so the one
// allocating run still fails a 0-alloc baseline.
func TestParseBenchRepeatedLines(t *testing.T) {
	f, err := parseBench(strings.NewReader(repeatedBench))
	if err != nil {
		t.Fatal(err)
	}
	const name = "BenchmarkHubEncodeOnce/subs=1000"
	got, ok := f.Benchmarks[name]
	if !ok || len(f.Benchmarks) != 1 {
		t.Fatalf("parsed %v, want only %s", f.Benchmarks, name)
	}
	if got.Metrics["encodes/version"] != 1.0 {
		t.Errorf("encodes/version %v: want the median, 1", got.Metrics["encodes/version"])
	}
	if got.AllocsPerOp != 1 || got.BytesPerOp != 48 {
		t.Errorf("allocs/op %v, B/op %v: want the largest, 1 and 48", got.AllocsPerOp, got.BytesPerOp)
	}
	base := &benchFile{Benchmarks: map[string]benchResult{name: {}}}
	if pass, out := gateResult(t, base, f); pass || !strings.Contains(out, "0-alloc path") {
		t.Errorf("want the alloc gate to fail:\n%s", out)
	}
	if even := median([]float64{4, 1, 3, 2}); even != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", even)
	}
}

// tenRuns is ten runs of one benchmark, the last of them reading allocs/op.
func tenRuns(name string, allocs []float64, last float64) string {
	var b strings.Builder
	for i := 0; i < 10; i++ {
		a := allocs[i%len(allocs)]
		if i == 9 {
			a = last
		}
		fmt.Fprintf(&b, "%s-2   \t  1000\t    300000 ns/op\t  4732 B/op\t  %.0f allocs/op\n", name, a)
	}
	return b.String()
}

// TestCompareWarnsOnMedianRun: against a baseline that allocates, one run in
// ten reading 232 allocs/op does not warn, since the median run reads 50 or
// less, while a 0-alloc row that allocates in one run of ten still fails.
func TestCompareWarnsOnMedianRun(t *testing.T) {
	const name = "BenchmarkHubEncodeOnce/subs=1000"
	f, err := parseBench(strings.NewReader(tenRuns(name, []float64{27, 50, 78, 31, 44}, 232)))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Benchmarks[name].AllocsPerOp; got != 232 {
		t.Fatalf("allocs/op %v: -out must keep the largest run, 232", got)
	}
	base := &benchFile{Benchmarks: map[string]benchResult{name: {AllocsPerOp: 50}}}
	if pass, out := gateResult(t, base, f); !pass || strings.Contains(out, "warn") {
		t.Errorf("one outlier run warned or failed (pass=%v):\n%s", pass, out)
	}
	// The median run above the baseline still warns.
	if f, err = parseBench(strings.NewReader(tenRuns(name, []float64{60, 70}, 50))); err != nil {
		t.Fatal(err)
	}
	if pass, out := gateResult(t, base, f); !pass || !strings.Contains(out, "warn "+name+": allocs/op 50 -> 60") {
		t.Errorf("a median run above the baseline went unreported (pass=%v):\n%s", pass, out)
	}

	const zero = "BenchmarkSessionIngest"
	if f, err = parseBench(strings.NewReader(tenRuns(zero, []float64{0}, 1))); err != nil {
		t.Fatal(err)
	}
	base = &benchFile{Benchmarks: map[string]benchResult{zero: {}}}
	if pass, out := gateResult(t, base, f); pass || !strings.Contains(out, "FAIL "+zero+": 1 allocs/op on a 0-alloc path") {
		t.Errorf("a 0-alloc row allocating in one run of ten passed:\n%s", out)
	}
}

// gateResult runs compare and collects its log lines.
func gateResult(t *testing.T, base, fresh *benchFile) (bool, string) {
	t.Helper()
	var lines []string
	pass := compare(base, fresh, func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	})
	return pass, strings.Join(lines, "\n")
}

func TestCompareGates(t *testing.T) {
	base := &benchFile{Benchmarks: map[string]benchResult{
		"BenchmarkA": {AllocsPerOp: 0},
		"BenchmarkB": {AllocsPerOp: 5},
	}}

	// Allocations within the contract: pass (even with B's alloc growth,
	// which only warns).
	fresh := &benchFile{Benchmarks: map[string]benchResult{
		"BenchmarkA": {AllocsPerOp: 0},
		"BenchmarkB": {AllocsPerOp: 6},
	}}
	if pass, out := gateResult(t, base, fresh); !pass || !strings.Contains(out, "warn BenchmarkB") {
		t.Errorf("in-contract run failed, or B's alloc growth went unreported:\n%s", out)
	}

	// Any alloc on a 0-alloc path: fail.
	fresh.Benchmarks["BenchmarkA"] = benchResult{AllocsPerOp: 1}
	if pass, out := gateResult(t, base, fresh); pass || !strings.Contains(out, "0-alloc path") {
		t.Errorf("alloc regression on 0-alloc path passed:\n%s", out)
	}

	// Pinned benchmark missing: fail.
	delete(fresh.Benchmarks, "BenchmarkA")
	if pass, out := gateResult(t, base, fresh); pass || !strings.Contains(out, "missing") {
		t.Errorf("missing pinned benchmark passed:\n%s", out)
	}

	// Unknown fresh benchmarks are ignored.
	fresh = &benchFile{Benchmarks: map[string]benchResult{
		"BenchmarkA": {},
		"BenchmarkB": {AllocsPerOp: 5},
		"BenchmarkC": {AllocsPerOp: 99},
	}}
	if pass, out := gateResult(t, base, fresh); !pass {
		t.Errorf("extra benchmark failed the gate:\n%s", out)
	}

	// Go-version skew warns (never gates) so toolchain codegen shifts are the
	// first hypothesis on an alloc gate failure, not a mystery.
	base.GoVersion, fresh.GoVersion = "go1.22.9", "go1.24.0"
	if pass, out := gateResult(t, base, fresh); !pass || !strings.Contains(out, "go1.22.9") || !strings.Contains(out, "go1.24.0") {
		t.Errorf("version skew not warned (pass=%v):\n%s", pass, out)
	}
	// Same version, or a baseline predating the field: silent.
	fresh.GoVersion = base.GoVersion
	if _, out := gateResult(t, base, fresh); strings.Contains(out, "toolchain") {
		t.Errorf("same-version run warned:\n%s", out)
	}
	base.GoVersion = ""
	if _, out := gateResult(t, base, fresh); strings.Contains(out, "toolchain") {
		t.Errorf("versionless baseline warned:\n%s", out)
	}
}

// TestCompareGatesMetrics: a custom metric of a pinned benchmark is gated on
// its value: a higher B/vote fails, an equal or lower one passes, and a
// metric the fresh run no longer reports fails.
func TestCompareGatesMetrics(t *testing.T) {
	base := &benchFile{Benchmarks: map[string]benchResult{
		"BenchmarkTaskRecords/encode": {Metrics: map[string]float64{"B/vote": 1.474}},
	}}
	fresh := func(m map[string]float64) *benchFile {
		return &benchFile{Benchmarks: map[string]benchResult{"BenchmarkTaskRecords/encode": {Metrics: m}}}
	}
	if pass, out := gateResult(t, base, fresh(map[string]float64{"B/vote": 1.474})); !pass {
		t.Errorf("an equal B/vote failed:\n%s", out)
	}
	if pass, out := gateResult(t, base, fresh(map[string]float64{"B/vote": 1.2})); !pass {
		t.Errorf("a lower B/vote failed:\n%s", out)
	}
	if pass, out := gateResult(t, base, fresh(map[string]float64{"B/vote": 1.475})); pass || !strings.Contains(out, "B/vote 1.475 above its baseline 1.474") {
		t.Errorf("a higher B/vote passed:\n%s", out)
	}
	if pass, out := gateResult(t, base, fresh(nil)); pass || !strings.Contains(out, "pinned metric B/vote missing") {
		t.Errorf("a missing B/vote passed:\n%s", out)
	}
	// Times are not recorded, so they cannot be gated across hosts.
	f, err := parseBench(strings.NewReader("BenchmarkTaskRecords/encode-2  1000  560.0 ns/op  28.00 ns/vote  1.474 B/vote  0 B/op  0 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Benchmarks["BenchmarkTaskRecords/encode"].Metrics; len(got) != 1 || got["B/vote"] != 1.474 {
		t.Errorf("parsed metrics %v, want B/vote alone", got)
	}
}

// TestBaselineFileParses keeps the committed baseline loadable by the gate:
// if BENCH_baseline.json rots (bad JSON, emptied), CI's compare step would
// die in a confusing way — this catches it at test time.
func TestBaselineFileParses(t *testing.T) {
	path := filepath.Join("..", "..", "BENCH_baseline.json")
	f, err := readBenchFile(path)
	if err != nil {
		t.Fatalf("committed baseline unreadable: %v", err)
	}
	for _, name := range []string{
		"BenchmarkJournalAppend/batch",
		"BenchmarkEstimatesCached/cached",
		"BenchmarkSessionIngest",
		"BenchmarkSessionIngestGated",
	} {
		r, ok := f.Benchmarks[name]
		if !ok {
			t.Errorf("baseline missing pinned benchmark %s", name)
			continue
		}
		if r.AllocsPerOp != 0 {
			t.Errorf("%s: baseline allocs/op = %v, the 0-alloc contract is gone", name, r.AllocsPerOp)
		}
	}
}

// pairedBench is three alternating pairs of runs of one benchmark, as the
// base and fresh sides of a paired gate write them.
const (
	pairedBase = `BenchmarkMatrixAdd-2   	 1000	   100 ns/op
BenchmarkMatrixAdd-2   	 1000	   200 ns/op
BenchmarkMatrixAdd-2   	 1000	   100 ns/op
BenchmarkGone-2   	 1000	   5 ns/op
`
	pairedFresh = `BenchmarkMatrixAdd-2   	 1000	   %d ns/op
BenchmarkMatrixAdd-2   	 1000	   %d ns/op
BenchmarkMatrixAdd-2   	 1000	   %d ns/op
BenchmarkNew-2   	 1000	   7 ns/op
`
)

// pairedResult writes a base and a fresh run to files, reads them back and
// runs the paired gate on them, collecting its log lines.
func pairedResult(t *testing.T, base, fresh string, threshold float64) (bool, string) {
	t.Helper()
	dir := t.TempDir()
	read := func(name, text string) map[string][]float64 {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		runs, err := readRuns(path)
		if err != nil {
			t.Fatal(err)
		}
		return runs
	}
	b, f := read("base.txt", base), read("fresh.txt", fresh)
	var lines []string
	pass := comparePaired(b, f, threshold, func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	})
	return pass, strings.Join(lines, "\n")
}

// TestComparePaired: the paired gate divides the i-th fresh run by the
// i-th base run and gates the median ratio, so a host whose speed drifts
// between pairs (the base's second run is twice as slow) is not read as a
// regression, while a change 40% slower in every pair is. A base benchmark
// missing from the fresh side fails; a new one is only reported, and so is
// a disk-bound one.
func TestComparePaired(t *testing.T) {
	steady := strings.Replace(pairedBase, "BenchmarkGone-2   	 1000	   5 ns/op\n", "", 1)
	pass, out := pairedResult(t, steady, fmt.Sprintf(pairedFresh, 95, 210, 104), 0.30)
	if !pass || !strings.Contains(out, "median 1.040 (q1 0.995, q3 1.045") || !strings.Contains(out, "faster in 1 of 3") {
		t.Errorf("drifting host, unchanged code: want a pass at median 1.040, faster in 1 of 3:\n%s", out)
	}
	if !strings.Contains(out, "new  BenchmarkNew") {
		t.Errorf("a benchmark the base lacks was not reported as new:\n%s", out)
	}
	pass, out = pairedResult(t, steady, fmt.Sprintf(pairedFresh, 140, 280, 140), 0.30)
	if pass || !strings.Contains(out, "FAIL BenchmarkMatrixAdd") || !strings.Contains(out, "faster in 0 of 3") {
		t.Errorf("40%% slower in every pair passed:\n%s", out)
	}
	pass, out = pairedResult(t, pairedBase, fmt.Sprintf(pairedFresh, 100, 200, 100), 0.30)
	if pass || !strings.Contains(out, "FAIL BenchmarkGone") || strings.Contains(out, "FAIL BenchmarkMatrixAdd") {
		t.Errorf("want only the missing benchmark to fail:\n%s", out)
	}
	// A disk-bound name is reported with its ratios, and never fails.
	disk := strings.ReplaceAll(steady, "BenchmarkMatrixAdd", "BenchmarkGroupCommit/batch")
	pass, out = pairedResult(t, disk, strings.ReplaceAll(fmt.Sprintf(pairedFresh, 140, 280, 140), "BenchmarkMatrixAdd", "BenchmarkGroupCommit/batch"), 0.30)
	if !pass || !strings.Contains(out, "disk BenchmarkGroupCommit/batch: paired ns/op ratio median 1.400") || !strings.Contains(out, "not gated") {
		t.Errorf("a disk-bound name 40%% slower failed, or went unreported:\n%s", out)
	}
}

// TestQuantile pins the interpolation the paired gate's quartiles use.
func TestQuantile(t *testing.T) {
	vs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}} {
		if got := quantile(vs, c.p); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := quantile([]float64{1, 2}, 0.25); got != 1.25 {
		t.Errorf("quantile of two values at 0.25 = %v, want 1.25", got)
	}
}
