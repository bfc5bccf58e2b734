package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// benchmarkJSON is the shape of BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONIsGatedSpec checks that BENCHMARK.json lists exactly the
// gated part of spec.json, within the limits its readers enforce.
func TestBenchmarkJSONIsGatedSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var got benchmarkJSON
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	var want benchmarkJSON
	want.Command, want.Paths, want.RunSeconds = spec.Command, spec.Paths, spec.RunSeconds
	for _, w := range spec.Workloads {
		want.Workloads = append(want.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.Name, w.Why})
	}
	for _, m := range spec.EndToEnd {
		if m.Gated {
			want.EndToEnd = append(want.EndToEnd, struct {
				Name   string  `json:"name"`
				Unit   string  `json:"unit"`
				Better string  `json:"better"`
				Bound  float64 `json:"bound"`
			}{m.Name, m.Unit, m.Better, m.benchmarkBound()})
		}
	}
	for _, m := range spec.PerLayer {
		if m.Gated {
			want.PerLayer = append(want.PerLayer, struct {
				Name   string `json:"name"`
				Unit   string `json:"unit"`
				Better string `json:"better"`
			}{m.Name, m.Unit, m.Better})
		}
	}
	if !reflect.DeepEqual(got, want) {
		w, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json differs from the gated part of spec.json; want:\n%s", w)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE := regexp.MustCompile(`^[A-Za-z0-9_.\-/]{1,200}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range got.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(got.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	setup := false
	for _, m := range got.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %+v out of limits", m)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range got.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, m := range got.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %+v out of limits", m)
		}
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds %d", got.RunSeconds)
	}
	if n := len(got.Paths); n < 1 || n > 16 {
		t.Errorf("%d paths", n)
	}
	for _, p := range got.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || slices.Contains(strings.Split(p, "/"), "..") {
			t.Errorf("bad path %q", p)
		}
	}
	if len(got.Command) == 0 || len(got.Command) > 32 {
		t.Errorf("command has %d strings", len(got.Command))
	}
	for _, c := range got.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("bad command string %q", c)
		}
	}
}

// The contract line holds every gated metric of the workload, and refuses to
// be printed without one.
func TestContractLineNeedsEveryGatedMetric(t *testing.T) {
	full := map[string]metric{}
	for _, m := range spec.EndToEnd {
		full[m.Name] = metric{Value: 1.5, Unit: m.Unit}
	}
	res := &result{Workload: "ingest", Correct: true, Attempted: 3, EndToEnd: full}
	line, err := contractLine([]*result{res}, false)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		if _, ok := got.Metrics[m.Name]; ok != m.Gated {
			t.Errorf("%s in the line: %v, gated: %v", m.Name, ok, m.Gated)
		}
	}
	if !got.Correct || got.Attempted != 3 {
		t.Errorf("line %s", line)
	}

	delete(full, "server_rss_mb")
	if line, err := contractLine([]*result{res}, false); err == nil {
		t.Errorf("printed %s without server_rss_mb", line)
	}
	full["server_rss_mb"] = metric{Value: math.NaN(), Unit: "MB"}
	if line, err := contractLine([]*result{res}, false); err == nil {
		t.Errorf("printed %s with server_rss_mb absent", line)
	}
}

// Every layer metric names the end-to-end metric and workload it should
// move, and applies to workloads that exist.
func TestSpecLayerMapIsConsistent(t *testing.T) {
	for _, w := range spec.Workloads {
		// setup_s is a median, so every run sets up several times.
		if w.Setups < 3 {
			t.Errorf("%s sets up %d times, want at least 3", w.Name, w.Setups)
		}
	}
	for _, list := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
		for _, m := range list {
			for _, w := range m.Workloads {
				if _, ok := workloadSpec(w); !ok {
					t.Errorf("%s: unknown workload %q", m.Name, w)
				}
			}
			if m.Gated && len(m.Workloads) != len(spec.Workloads) {
				t.Errorf("%s is gated but not measured on every workload", m.Name)
			}
		}
	}
	for _, m := range spec.PerLayer {
		if base, ok := strings.CutPrefix(m.Name, "trace.overhead."); ok {
			e, ok := metricSpec(base)
			for _, w := range m.Workloads {
				if !ok || !e.appliesTo(w) {
					t.Errorf("%s on %s: %s is not an end-to-end metric of that workload", m.Name, w, base)
				}
			}
		}
		for _, mv := range m.Moves {
			e, ok := metricSpec(mv[0])
			if !ok || e.Layer != "" {
				t.Errorf("%s moves unknown end-to-end metric %q", m.Name, mv[0])
				continue
			}
			if !e.appliesTo(mv[1]) {
				t.Errorf("%s moves %s on %s, which that workload does not report", m.Name, mv[0], mv[1])
			}
		}
	}
}
