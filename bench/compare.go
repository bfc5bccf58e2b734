package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// readRuns loads an -out file: one run record per line.
func readRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, rec)
	}
	return runs, sc.Err()
}

// values collects one metric of one workload across runs; absent readings
// (no "value" key) are skipped.
func values(runs []runRecord, workload, name string) []float64 {
	var out []float64
	for _, rec := range runs {
		if res := rec.Workloads[workload]; res != nil {
			if m, ok := res.EndToEnd[name]; ok && !m.absent() {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// UnmarshalJSON reads both the plain and the absent form of a metric.
func (m *metric) UnmarshalJSON(b []byte) error {
	var raw struct {
		Value  *float64 `json:"value"`
		Unit   string   `json:"unit"`
		N      int      `json:"n"`
		Absent bool     `json:"absent"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	*m = metric{Value: math.NaN(), Unit: raw.Unit, N: raw.N}
	if raw.Value != nil && !raw.Absent {
		m.Value = *raw.Value
	}
	return nil
}

// sameSettings checks that every run of both sets used one seed, one run
// length and one tracing mode: runs that differ in any of them measure
// different things and may be neither pooled nor compared.
func sameSettings(a, b []runRecord) error {
	first := a[0]
	for _, rec := range append(slices.Clone(a), b...) {
		if rec.Seed != first.Seed || rec.Seconds != first.Seconds || rec.Traced != first.Traced {
			return fmt.Errorf("runs differ in settings: seed %d, %d s, traced %v against seed %d, %d s, traced %v",
				rec.Seed, rec.Seconds, rec.Traced, first.Seed, first.Seconds, first.Traced)
		}
	}
	return nil
}

// compareFiles reports, for every end-to-end metric and workload, the
// median and quartile spread of each set and the change from A to B against
// the metric's bound. A pair whose spread exceeds its bound is unresolved
// unless every run of B reads better than every run of A. It returns the
// exit code: 1 when any pair regressed beyond its bound, 2 when the sets
// cannot be compared.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readRuns(pathA)
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s: no runs", pathA)
	}
	var b []runRecord
	if err == nil {
		b, err = readRuns(pathB)
		if err == nil && len(b) == 0 {
			err = fmt.Errorf("%s: no runs", pathB)
		}
	}
	if err == nil {
		err = sameSettings(a, b)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	fmt.Fprintf(w, "A=%s (%d runs)  B=%s (%d runs)  seed %d, %d s\n", pathA, len(a), pathB, len(b), a[0].Seed, a[0].Seconds)
	fmt.Fprintf(w, "%-8s %-23s %12s %8s %12s %8s %8s %6s  %s\n", "workload", "metric", "A median", "A sprd", "B median", "B sprd", "worse", "bound", "verdict")
	regressions, unresolved := 0, 0
	for _, ws := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			if !m.appliesTo(ws.Name) {
				continue
			}
			va, vb := values(a, ws.Name, m.Name), values(b, ws.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-8s %-23s %12s\n", ws.Name, m.Name, "absent")
				continue
			}
			v := judge(m, va, vb)
			switch v.verdict {
			case "REGRESSION":
				regressions++
			case "unresolved":
				unresolved++
			}
			fmt.Fprintf(w, "%-8s %-23s %12.6g %7.1f%% %12.6g %7.1f%% %7.1f%% %5.0f%%  %s\n",
				ws.Name, m.Name, median(va), 100*spread(va), median(vb), 100*spread(vb), 100*v.worse, 100*v.bound, v.verdict)
		}
	}
	fmt.Fprintf(w, "%d regression(s), %d unresolved\n", regressions, unresolved)
	if regressions > 0 {
		return 1
	}
	return 0
}

type judgement struct {
	worse   float64 // relative change of the median in the "worse" direction
	bound   float64 // the relative bound at A's median
	verdict string
}

func judge(m specMetric, va, vb []float64) judgement {
	ma, mb := median(va), median(vb)
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	var worse float64
	switch {
	case ma != 0:
		worse = sign * (mb - ma) / math.Abs(ma)
	case mb != ma:
		worse = sign * math.Inf(1)
	}
	bound := m.boundAt(ma)
	allBetter := slices.Max(vb) < slices.Min(va)
	if m.Better == "higher" {
		allBetter = slices.Min(vb) > slices.Max(va)
	}
	// A zero bound (error_ratio) tolerates no increase, however noisy.
	noisy := bound > 0 && max(spread(va), spread(vb)) > bound
	switch {
	case allBetter:
		return judgement{worse, bound, "ok (every B run better)"}
	case noisy:
		return judgement{worse, bound, "unresolved"}
	case worse > bound:
		return judgement{worse, bound, "REGRESSION"}
	}
	return judgement{worse, bound, "ok"}
}
