// Command dqm-benchdiff is the CI perf-regression gate: it parses `go test
// -bench` output into a machine-readable JSON and compares it against a
// committed baseline (BENCH_baseline.json) with benchstat-style thresholds.
//
// Usage:
//
//	# Parse a bench run and write its JSON form (refreshing a baseline):
//	go test -run '^$' -bench ... | dqm-benchdiff -out BENCH_baseline.json
//
//	# Gate a fresh run against the committed baseline:
//	dqm-benchdiff -bench-out bench.txt -baseline BENCH_baseline.json \
//	              -out BENCH_fresh.json -threshold 0.30
//
// Gate rules (exit status 1 on any violation):
//
//   - ns/op: a benchmark more than -threshold (default 30%) slower than its
//     baseline fails. Speedups are reported, never gated.
//   - allocs/op: a benchmark whose baseline is 0 allocs/op fails on ANY
//     increase — the 0-alloc ingest and cached-read paths are load-bearing
//     contracts, not noise. Non-zero baselines only warn on growth (pool
//     warmup makes small counts benchtime-sensitive).
//   - presence: a baseline benchmark missing from the fresh run fails; a
//     pinned hot path silently dropping out of the suite is itself a
//     regression.
//
// GOMAXPROCS name suffixes ("-8") are stripped, so baselines compare across
// machines with different core counts (ns thresholds still assume comparable
// hardware; refresh the baseline when the CI runner class changes).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// benchResult is one benchmark's measured numbers.
type benchResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics carries ReportMetric extras (e.g. "votes/s", "Mvotes/s").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// benchFile is the BENCH_baseline.json / BENCH_fresh.json schema.
type benchFile struct {
	SchemaVersion int    `json:"schema_version"`
	Note          string `json:"note,omitempty"`
	// GoVersion is the toolchain that produced the numbers (runtime.Version()
	// of this tool, which CI runs with the same Go as the bench binary). A
	// baseline measured on a different Go release is compared with a warning:
	// codegen changes between releases routinely move ns/op by more than
	// noise, so version skew is the first thing to rule out on a gate failure.
	GoVersion  string                 `json:"go_version,omitempty"`
	Benchmarks map[string]benchResult `json:"benchmarks"`
}

func main() {
	fs := flag.NewFlagSet("dqm-benchdiff", flag.ExitOnError)
	var (
		benchOut  = fs.String("bench-out", "", "go test -bench output file ('-' or empty with piped stdin = stdin)")
		baseline  = fs.String("baseline", "", "baseline JSON to gate against")
		out       = fs.String("out", "", "write the parsed fresh results as JSON here")
		threshold = fs.Float64("threshold", 0.30, "max allowed ns/op regression (0.30 = +30%)")
		note      = fs.String("note", "", "note recorded in -out")
	)
	fs.Parse(os.Args[1:])

	if *benchOut != "" || *baseline != "" || *out != "" {
		var in io.Reader = os.Stdin
		if *benchOut != "" && *benchOut != "-" {
			f, err := os.Open(*benchOut)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			in = f
		}
		fresh, err := parseBench(in)
		if err != nil {
			log.Fatal(err)
		}
		if len(fresh.Benchmarks) == 0 {
			log.Fatal("no benchmark lines found in input")
		}
		if *out != "" {
			fresh.Note = *note
			b, _ := json.MarshalIndent(fresh, "", "  ")
			if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
				log.Fatal(err)
			}
			log.Printf("wrote %d benchmarks to %s", len(fresh.Benchmarks), *out)
		}
		if *baseline != "" {
			base, err := readBenchFile(*baseline)
			if err != nil {
				log.Fatal(err)
			}
			if !compare(base, fresh, *threshold, log.Printf) {
				os.Exit(1)
			}
		}
	}
}

// benchLine matches one `go test -bench` result line:
// name-P  iters  value unit  [value unit]...
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.+)$`)

// stripProcs removes the trailing -GOMAXPROCS from a benchmark name.
func stripProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// parseBench reads `go test -bench` output into a benchFile.
func parseBench(r io.Reader) (*benchFile, error) {
	out := &benchFile{SchemaVersion: 1, GoVersion: runtime.Version(), Benchmarks: make(map[string]benchResult)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name := stripProcs(m[1])
		res := out.Benchmarks[name] // merged if a name repeats (-count>1: last wins per field)
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bench line %q: bad value %q", sc.Text(), fields[i])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			default:
				if res.Metrics == nil {
					res.Metrics = make(map[string]float64)
				}
				res.Metrics[unit] = v
			}
		}
		out.Benchmarks[name] = res
	}
	return out, sc.Err()
}

// readBenchFile loads a baseline JSON.
func readBenchFile(path string) (*benchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return &f, nil
}

// compare gates fresh against base, logging one line per benchmark. It
// returns false when any gate fails.
func compare(base, fresh *benchFile, threshold float64, logf func(string, ...any)) bool {
	if base.GoVersion != "" && fresh.GoVersion != "" && base.GoVersion != fresh.GoVersion {
		logf("warn: baseline measured on %s, fresh run on %s — ns/op deltas may be toolchain codegen, not code; refresh the baseline to re-anchor",
			base.GoVersion, fresh.GoVersion)
	}
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	pass := true
	for _, name := range names {
		b := base.Benchmarks[name]
		f, ok := fresh.Benchmarks[name]
		if !ok {
			logf("FAIL %s: pinned benchmark missing from the fresh run", name)
			pass = false
			continue
		}
		switch {
		case b.AllocsPerOp == 0 && f.AllocsPerOp > 0:
			logf("FAIL %s: %.0f allocs/op on a 0-alloc path", name, f.AllocsPerOp)
			pass = false
		case f.AllocsPerOp > b.AllocsPerOp:
			logf("warn %s: allocs/op %.0f -> %.0f", name, b.AllocsPerOp, f.AllocsPerOp)
		}
		if b.NsPerOp > 0 {
			ratio := f.NsPerOp / b.NsPerOp
			if ratio > 1+threshold {
				logf("FAIL %s: %.4g ns/op vs baseline %.4g (%+.1f%%, threshold %+.0f%%)",
					name, f.NsPerOp, b.NsPerOp, (ratio-1)*100, threshold*100)
				pass = false
			} else {
				logf("ok   %s: %.4g ns/op vs baseline %.4g (%+.1f%%)", name, f.NsPerOp, b.NsPerOp, (ratio-1)*100)
			}
		}
	}
	return pass
}
