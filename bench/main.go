// Command dqmbench is the end-to-end benchmark of dqm-serve: it builds the
// server, drives it over the v1 HTTP API with four workloads (ingest,
// monitor, watch, restart), checks every answer against in-process replays
// through the exported dqm package, and prints every metric by name with its
// unit. See README.md for the workloads, metrics and how to read them.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-seed 1] [-trace spans.jsonl] [-out results.jsonl]
//	bash bench/run.sh -compare A.jsonl B.jsonl
//
// -trace FILE adds a traced pass and the in-process replays to each workload,
// reports the per-layer metrics and writes every span to FILE. -out appends
// the run as one JSON line, the input of -compare.
//
// A benchmark harness calls it as
//
//	bash bench/run.sh --workload NAME --seed N --seconds 20 --trace 0|1
//
// to run one workload, untraced (0) or traced without a span file (1). The
// run length is the benchmark's own: -seconds must equal run_seconds in
// spec.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

var runners = map[string]func(*runner) error{
	"ingest":  runIngest,
	"monitor": runMonitor,
	"watch":   runWatch,
	"restart": runRestart,
}

func main() {
	workload := flag.String("workload", "all", "workload to run: all, ingest, monitor, watch or restart")
	seed := flag.Uint64("seed", uint64(spec.Seeds["default"]), "seed of the generated op streams")
	seconds := flag.Int("seconds", spec.RunSeconds, "measured seconds per workload; must equal run_seconds")
	trace := flag.String("trace", "0", "a file name: add a traced pass, report layer metrics and write the spans there; 1: the same without the file; 0: untraced")
	out := flag.String("out", "", "append this run's results as one JSON line to this file")
	compare := flag.Bool("compare", false, "compare two result files (positional arguments) instead of running")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare A.jsonl B.jsonl")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	names := []string{*workload}
	if *workload == "all" {
		names = nil
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	} else if runners[*workload] == nil {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds != spec.RunSeconds {
		fmt.Fprintf(os.Stderr, "-seconds is fixed at run_seconds (%d), got %d\n", spec.RunSeconds, *seconds)
		os.Exit(2)
	}
	traced := *trace != "0"
	results, spans, err := run(names, *seed, time.Duration(*seconds)*time.Second, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *trace != "0" && *trace != "1" {
		if err := spans.write(*trace); err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing spans:", err)
			os.Exit(1)
		}
	}
	if *out != "" {
		if err := appendRun(*out, *seed, *seconds, traced, results); err != nil {
			fmt.Fprintln(os.Stderr, "bench: -out:", err)
			os.Exit(1)
		}
	}
	line, err := contractLine(results, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	for _, r := range results {
		if !r.Correct {
			os.Exit(1)
		}
	}
}

// run builds dqm-serve and runs the named workloads, printing each
// workload's metric lines as it finishes.
func run(names []string, seed uint64, measure time.Duration, traced bool) ([]*result, *tracer, error) {
	root, err := findRoot()
	if err != nil {
		return nil, nil, err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, nil, err
	}
	bin, err := buildServe(root, build)
	if err != nil {
		return nil, nil, err
	}
	work, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(work)
	fmt.Printf("# dqmbench seed=%d seconds=%.0f trace=%v GOMAXPROCS=%d connections=2\n", seed, measure.Seconds(), traced, runtime.GOMAXPROCS(0))
	all := newTracer()
	var results []*result
	for _, name := range names {
		p := paramsFor(name, measure)
		res := runWorkload(name, &p, seed, bin, work, traced)
		all.spans = append(all.spans, res.spans...)
		printResult(res, traced)
		results = append(results, res)
	}
	return results, all, nil
}

// runWorkload runs the untraced pass and, when traced, a traced pass whose
// spans and in-process replays give the layer metrics.
func runWorkload(name string, p *params, seed uint64, bin, work string, traced bool) *result {
	u := runPass(name, p, seed, bin, work, nil)
	res := &result{
		Workload:  name,
		Attempted: u.attempted,
		Failed:    u.failed,
		Problems:  u.problems,
		EndToEnd:  u.e2e,
	}
	if traced {
		tr := newTracer()
		t := runPass(name, p, seed, bin, work, tr)
		res.Attempted += t.attempted
		res.Failed += t.failed
		res.Problems = append(res.Problems, t.problems...)
		// Span-derived metrics come from the traced pass; /metrics, /proc
		// and client-side ones from the untraced pass, which tracing cannot
		// have disturbed.
		res.Layer = u.layer
		for k, v := range t.layer {
			if isTraced(k) {
				res.Layer[k] = v
			}
		}
		// Tracing overhead on each latency the workload reports, where the
		// catalog has a trace.overhead metric for it.
		for m, a := range u.e2e {
			name := "trace.overhead." + m
			if s, ok := metricSpec(name); ok && s.appliesTo(res.Workload) {
				b := t.e2e[m]
				res.Layer[name] = metric{Value: b.Value/a.Value - 1, Unit: "ratio", N: b.N}
			}
		}
		res.spans = tr.spans
	}
	res.Correct = res.Failed == 0
	return res
}

// isTraced reports whether a layer metric comes from the traced pass.
func isTraced(name string) bool {
	m, ok := metricSpec(name)
	return ok && m.Source == "traced"
}

// runPass runs one pass of a workload and its correctness replays.
func runPass(name string, p *params, seed uint64, bin, work string, tr *tracer) *pass {
	r := &runner{name: name, p: p, seed: seed, bin: bin, work: work, tr: tr, res: newPass()}
	cpu0 := selfCPU()
	err := runners[name](r)
	r.res.cpu = selfCPU() - cpu0
	for _, l := range r.res.logs {
		r.res.attempted += l.sent + l.missed
	}
	if err != nil {
		r.fail("%v", err)
		return r.res
	}
	if tr == nil {
		r.checkReplay()
	} else {
		if err := r.tracedReplays(); err != nil {
			r.fail("traced replay: %v", err)
		}
		layerFromSpans(r, tr.spans, r.res.window)
	}
	var late samples
	for _, l := range r.res.logs {
		late = append(late, l.late...)
	}
	if len(late) > 0 {
		r.setPct("bench.late_p99_ms", late, 99)
	}
	for k := opKind(0); k < numOpKinds; k++ {
		if s := r.res.lat(k); len(s) > 0 {
			r.setPct("bench."+k.String()+".p99_ms", s, 99)
		}
	}
	r.set("bench.cpu_s", r.res.cpu.Seconds(), 1)
	r.set("error_ratio", float64(r.res.failed)/float64(max(1, r.res.attempted)), r.res.attempted)
	return r.res
}

func printResult(res *result, traced bool) {
	printLines(os.Stdout, res.Workload, spec.EndToEnd, res.EndToEnd)
	if traced {
		printLines(os.Stdout, res.Workload, spec.PerLayer, res.Layer)
		printSpans(os.Stdout, res.Workload, res.spans)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(os.Stderr, "%s check failed: %s\n", res.Workload, p)
	}
}

// runRecord is one line of an -out file.
type runRecord struct {
	Seed      uint64             `json:"seed"`
	Seconds   int                `json:"seconds"`
	Traced    bool               `json:"traced"`
	Time      string             `json:"time"`
	Workloads map[string]*result `json:"workloads"`
}

func appendRun(path string, seed uint64, seconds int, traced bool, results []*result) error {
	rec := runRecord{Seed: seed, Seconds: seconds, Traced: traced, Time: time.Now().UTC().Format(time.RFC3339), Workloads: map[string]*result{}}
	for _, r := range results {
		rec.Workloads[r.Workload] = r
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
