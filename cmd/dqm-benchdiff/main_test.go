package main

import (
	"fmt"
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
PASS
ok  	dqm/internal/wal	12.3s
`

func TestParseBench(t *testing.T) {
	f, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %v", len(f.Benchmarks), f.Benchmarks)
	}
	never, ok := f.Benchmarks["BenchmarkJournalAppend/never"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %v", f.Benchmarks)
	}
	if never.NsPerOp != 11776 || never.AllocsPerOp != 0 || never.BytesPerOp != 5544 {
		t.Errorf("never = %+v", never)
	}
	if never.Metrics["Mvotes/s"] != 84.92 {
		t.Errorf("custom metric lost: %+v", never.Metrics)
	}
	// A name with no -P suffix parses as-is.
	if _, ok := f.Benchmarks["BenchmarkSessionIngest"]; !ok {
		t.Errorf("suffixless benchmark missing: %v", f.Benchmarks)
	}
}

// repeatedBench is one benchmark run five times (-count 5): a slow outlier,
// and one run that allocated.
const repeatedBench = `BenchmarkAppendLog/durable/never-2   	  1000	    300000 ns/op	   4.0 Mvotes/s	     0 B/op	       0 allocs/op
BenchmarkAppendLog/durable/never-2   	  1000	    430000 ns/op	   2.0 Mvotes/s	     0 B/op	       0 allocs/op
BenchmarkAppendLog/durable/never-2   	  1000	    244000 ns/op	   5.0 Mvotes/s	    48 B/op	       1 allocs/op
BenchmarkAppendLog/durable/never-2   	  1000	    310000 ns/op	   3.9 Mvotes/s	     0 B/op	       0 allocs/op
BenchmarkAppendLog/durable/never-2   	  1000	    290000 ns/op	   4.1 Mvotes/s	     0 B/op	       0 allocs/op
`

// TestParseBenchRepeatedLines: a name repeated by -count keeps the median
// ns/op and custom metrics and the largest B/op and allocs/op, so the outlier
// run cannot fail the ns gate while the one allocating run still fails a
// 0-alloc baseline.
func TestParseBenchRepeatedLines(t *testing.T) {
	f, err := parseBench(strings.NewReader(repeatedBench))
	if err != nil {
		t.Fatal(err)
	}
	const name = "BenchmarkAppendLog/durable/never"
	got, ok := f.Benchmarks[name]
	if !ok || len(f.Benchmarks) != 1 {
		t.Fatalf("parsed %v, want only %s", f.Benchmarks, name)
	}
	if got.NsPerOp != 300000 || got.Metrics["Mvotes/s"] != 4.0 {
		t.Errorf("ns/op %v, Mvotes/s %v: want the medians 300000 and 4.0", got.NsPerOp, got.Metrics["Mvotes/s"])
	}
	if got.AllocsPerOp != 1 || got.BytesPerOp != 48 {
		t.Errorf("allocs/op %v, B/op %v: want the largest, 1 and 48", got.AllocsPerOp, got.BytesPerOp)
	}
	base := &benchFile{Benchmarks: map[string]benchResult{name: {NsPerOp: 280000}}}
	if pass, out := gateResult(t, base, f, 0.30); pass || !strings.Contains(out, "0-alloc path") || strings.Contains(out, "threshold") {
		t.Errorf("want only the alloc gate to fail:\n%s", out)
	}
	if even := median([]float64{4, 1, 3, 2}); even != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", even)
	}
}

// gateResult runs compare and collects its log lines.
func gateResult(t *testing.T, base, fresh *benchFile, threshold float64) (bool, string) {
	t.Helper()
	var lines []string
	pass := compare(base, fresh, threshold, func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	})
	return pass, strings.Join(lines, "\n")
}

func TestCompareGates(t *testing.T) {
	base := &benchFile{Benchmarks: map[string]benchResult{
		"BenchmarkA": {NsPerOp: 100, AllocsPerOp: 0},
		"BenchmarkB": {NsPerOp: 1000, AllocsPerOp: 5},
	}}

	// Within threshold: pass (even with B's alloc growth, which only warns).
	fresh := &benchFile{Benchmarks: map[string]benchResult{
		"BenchmarkA": {NsPerOp: 120, AllocsPerOp: 0},
		"BenchmarkB": {NsPerOp: 900, AllocsPerOp: 6},
	}}
	if pass, out := gateResult(t, base, fresh, 0.30); !pass {
		t.Errorf("in-threshold run failed:\n%s", out)
	}

	// ns regression beyond threshold: fail.
	fresh.Benchmarks["BenchmarkA"] = benchResult{NsPerOp: 140, AllocsPerOp: 0}
	if pass, out := gateResult(t, base, fresh, 0.30); pass || !strings.Contains(out, "FAIL BenchmarkA") {
		t.Errorf("+40%% ns/op passed:\n%s", out)
	}

	// Any alloc on a 0-alloc path: fail.
	fresh.Benchmarks["BenchmarkA"] = benchResult{NsPerOp: 100, AllocsPerOp: 1}
	if pass, out := gateResult(t, base, fresh, 0.30); pass || !strings.Contains(out, "0-alloc path") {
		t.Errorf("alloc regression on 0-alloc path passed:\n%s", out)
	}

	// Pinned benchmark missing: fail.
	delete(fresh.Benchmarks, "BenchmarkA")
	if pass, out := gateResult(t, base, fresh, 0.30); pass || !strings.Contains(out, "missing") {
		t.Errorf("missing pinned benchmark passed:\n%s", out)
	}

	// Unknown fresh benchmarks are ignored.
	fresh = &benchFile{Benchmarks: map[string]benchResult{
		"BenchmarkA": {NsPerOp: 100},
		"BenchmarkB": {NsPerOp: 1000, AllocsPerOp: 5},
		"BenchmarkC": {NsPerOp: 1, AllocsPerOp: 99},
	}}
	if pass, out := gateResult(t, base, fresh, 0.30); !pass {
		t.Errorf("extra benchmark failed the gate:\n%s", out)
	}

	// Go-version skew warns (never gates) so toolchain codegen shifts are the
	// first hypothesis on a threshold failure, not a mystery.
	base.GoVersion, fresh.GoVersion = "go1.22.9", "go1.24.0"
	if pass, out := gateResult(t, base, fresh, 0.30); !pass || !strings.Contains(out, "go1.22.9") || !strings.Contains(out, "go1.24.0") {
		t.Errorf("version skew not warned (pass=%v):\n%s", pass, out)
	}
	// Same version, or a baseline predating the field: silent.
	fresh.GoVersion = base.GoVersion
	if _, out := gateResult(t, base, fresh, 0.30); strings.Contains(out, "toolchain") {
		t.Errorf("same-version run warned:\n%s", out)
	}
	base.GoVersion = ""
	if _, out := gateResult(t, base, fresh, 0.30); strings.Contains(out, "toolchain") {
		t.Errorf("versionless baseline warned:\n%s", out)
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
