package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"slices"
)

// spec.json is the benchmark's catalog: workloads, every metric with its
// unit, direction, bound and the workloads it applies to, and every layer
// metric with the end-to-end metric it should move. BENCHMARK.json at the
// repository root is the gated subset of it, in the fixed shape that file
// has; spec_test.go keeps the two in step.
//
//go:embed spec.json
var specJSON []byte

// specWorkload is one workload. Time-bounded workloads warm up for WarmupS
// and then measure for run_seconds; restart instead runs WarmupCycles and
// then Cycles kill-and-recover cycles.
type specWorkload struct {
	Name         string   `json:"name"`
	Why          string   `json:"why"`
	Setups       int      `json:"setups"`
	WarmupS      float64  `json:"warmup_s"`
	WarmupCycles int      `json:"warmup_cycles"`
	Cycles       int      `json:"cycles"`
	ServerFlags  []string `json:"server_flags"`
}

// specMetric is one metric. Bound is the share of the baseline median by
// which the metric may worsen before -compare calls it a regression;
// BoundFloor, in the metric's unit, is the least worsening that counts, so
// the bound is max(Bound, BoundFloor/median). Gated metrics go into
// BENCHMARK.json, with GateBound when the share must be fixed there without
// knowing the median.
type specMetric struct {
	Name       string      `json:"name"`
	Unit       string      `json:"unit"`
	Better     string      `json:"better,omitempty"`
	Bound      float64     `json:"bound,omitempty"`
	BoundFloor float64     `json:"bound_floor,omitempty"`
	GateBound  float64     `json:"gate_bound,omitempty"`
	Gated      bool        `json:"gated,omitempty"`
	Workloads  []string    `json:"workloads"`
	Layer      string      `json:"layer,omitempty"`
	Source     string      `json:"source,omitempty"`
	Moves      [][2]string `json:"moves,omitempty"`
}

func (m *specMetric) appliesTo(workload string) bool { return slices.Contains(m.Workloads, workload) }

// boundAt is the relative bound that applies around a baseline median.
func (m *specMetric) boundAt(median float64) float64 {
	if m.BoundFloor > 0 && median != 0 {
		return max(m.Bound, m.BoundFloor/math.Abs(median))
	}
	return m.Bound
}

// benchmarkBound is the bound BENCHMARK.json records.
func (m *specMetric) benchmarkBound() float64 {
	if m.GateBound > 0 {
		return m.GateBound
	}
	return m.Bound
}

type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	Seeds      map[string]int `json:"seeds"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

var spec = mustSpec()

func mustSpec() benchSpec {
	var s benchSpec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		panic(fmt.Sprintf("bench: spec.json: %v", err))
	}
	return s
}

// metricSpec looks a metric up in either list.
func metricSpec(name string) (*specMetric, bool) {
	for _, list := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
		for i := range list {
			if list[i].Name == name {
				return &list[i], true
			}
		}
	}
	return nil, false
}

func workloadSpec(name string) (*specWorkload, bool) {
	for i := range spec.Workloads {
		if spec.Workloads[i].Name == name {
			return &spec.Workloads[i], true
		}
	}
	return nil, false
}
