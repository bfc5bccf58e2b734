package main

import (
	"testing"
	"time"
)

// tinyParams shrinks every workload to a fraction of a second while keeping
// its traffic shape.
func tinyParams() params {
	p := defaultParams(300 * time.Millisecond)
	p.warmup = 100 * time.Millisecond
	p.setups = 2
	p.restartWarmCycles, p.restartCycles = 1, 2
	p.items = 300
	p.ingestSessions, p.monitorSessions, p.watchSessions = 2, 2, 2
	p.rssVotes = 2000
	p.writeRate, p.readRate = 400, 200
	p.readDelay = 50 * time.Millisecond
	p.ciReplicates = 20
	p.restartSessions, p.restartTasks = 4, 10
	return p
}

// TestSmokeAllWorkloads runs the four workloads at tiny scale against a
// freshly built dqm-serve, untraced and traced, with every check enabled.
// It asserts correctness and that every gated metric was measured, never a
// timing.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs dqm-serve")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildServe(root, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			p := tinyParams()
			res := runWorkload(w.Name, &p, 1, bin, t.TempDir(), true)
			for _, problem := range res.Problems {
				t.Error(problem)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			for _, list := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
				for _, m := range list {
					got := res.EndToEnd
					if m.Layer != "" {
						got = res.Layer
					}
					if v, ok := got[m.Name]; m.Gated && (!ok || v.absent()) {
						t.Errorf("gated metric %s not measured", m.Name)
					}
				}
			}
			if len(res.spans) == 0 {
				t.Error("traced pass recorded no spans")
			}
		})
	}
}
