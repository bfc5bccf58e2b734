package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// metric is one reported value. A NaN value is absent: the workload does
// not exercise it, or the server no longer exposes the series behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // samples behind a percentile, mean or ratio
}

func (m metric) absent() bool { return math.IsNaN(m.Value) || math.IsInf(m.Value, 0) }

// MarshalJSON writes an absent metric as {"unit": ..., "absent": true}.
func (m metric) MarshalJSON() ([]byte, error) {
	type plain metric
	if m.absent() {
		return json.Marshal(struct {
			Unit   string `json:"unit"`
			Absent bool   `json:"absent"`
		}{m.Unit, true})
	}
	return json.Marshal(plain(m))
}

// result is one workload's outcome: the untraced pass's end-to-end metrics
// and, for traced runs, the layer metrics.
type result struct {
	Workload  string            `json:"workload"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	Layer     map[string]metric `json:"per_layer,omitempty"`
	spans     []span
}

// layerFromSpans derives the traced layer metrics of one traced pass.
func layerFromSpans(r *runner, spans []span, window [2]time.Time) {
	// HTTP spans count inside the measured window, like the end-to-end
	// metrics (restart has no window: its HTTP ops are set-up and cycles);
	// replay spans all count.
	lo, hi := window[0].Sub(r.tr.epoch).Nanoseconds(), window[1].Sub(r.tr.epoch).Nanoseconds()
	st := spanStats(spans, func(s span) bool {
		return window[0].IsZero() || !strings.HasPrefix(s.Name, "serve.") || (s.Start >= lo && s.Start < hi)
	})
	p50 := func(name string) (float64, int) {
		if s := st[name]; s != nil {
			return s.p50, s.n
		}
		return math.NaN(), 0
	}
	setScaled := func(metricName, spanName string, scale float64) {
		v, n := p50(spanName)
		r.set(metricName, v*scale, n)
	}
	setScaled("serve.votes_json.p50_ms", "serve.votes_json", 1)
	setScaled("serve.votes_dqmv.p50_ms", "serve.votes_dqmv", 1)
	setScaled("engine.append_votes.p50_us", "engine.append_votes", 1e3)
	setScaled("engine.append_dqmv.p50_us", "engine.append_dqmv", 1e3)
	setScaled("engine.estimates.p50_us", "engine.estimates", 1e3)
	setScaled("window.estimates.p50_us", "window.estimates", 1e3)
	setScaled("estimator.switch_ci.p50_ms", "estimator.switch_ci", 1)
	setScaled("engine.open_engine.p50_ms", "engine.open_engine", 1)

	tax := func(metricName, http, inproc string) {
		h, n := p50(http)
		e, _ := p50(inproc)
		r.set(metricName, (h-e)*1e3, n)
	}
	tax("serve.http_tax.votes_json_us", "serve.votes_json", "engine.append_votes")
	tax("serve.http_tax.estimates_us", "serve.estimates", "engine.estimates")

	// Per-vote and per-call append cost over both encodings: the durable
	// replay against the in-memory one isolates the journal's share.
	sum := func(names ...string) (total float64, n int) {
		for _, name := range names {
			if s := st[name]; s != nil {
				total += s.mean * float64(s.n)
				n += s.n
			}
		}
		return total, n
	}
	durable, calls := sum("engine.append_votes", "engine.append_dqmv")
	memory, memCalls := sum("engine.append_votes@mem", "engine.append_dqmv@mem")
	votes := float64(r.ackedVotes())
	r.set("engine.append_ns_per_vote", durable*1e6/votes, int(votes))
	r.set("wal.append_self_us", (durable/float64(calls)-memory/float64(memCalls))*1e3, calls)
}

// printLines writes one `workload metric value unit` line per metric of the
// catalog that applies to the workload, marking the missing ones absent.
func printLines(w io.Writer, workload string, list []specMetric, got map[string]metric) {
	for _, m := range list {
		if !m.appliesTo(workload) {
			continue
		}
		v, ok := got[m.Name]
		if !ok || v.absent() {
			fmt.Fprintf(w, "%s %s absent %s\n", workload, m.Name, m.Unit)
			continue
		}
		fmt.Fprintf(w, "%s %s %.6g %s", workload, m.Name, v.Value, m.Unit)
		if v.N > 0 {
			fmt.Fprintf(w, " n=%d", v.N)
		}
		fmt.Fprintln(w)
	}
}

// printSpans writes the layer report: per span name, count, p50, mean and
// mean self time.
func printSpans(w io.Writer, workload string, spans []span) {
	st := spanStats(spans, nil)
	names := make([]string, 0, len(st))
	for name := range st {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := st[name]
		fmt.Fprintf(w, "%s span %s n=%d p50_ms=%.4g mean_ms=%.4g self_ms=%.4g\n", workload, name, s.n, s.p50, s.mean, s.selfMean)
	}
}

// contractLine is the last line of standard output: the gated metrics only,
// end-to-end ones for untraced runs and layer ones for traced runs, under
// "<workload>/<metric>" keys when more than one workload ran. A gated metric
// absent from a workload it applies to is an error: the line must hold them
// all.
func contractLine(results []*result, traced bool) ([]byte, error) {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	list, from := spec.EndToEnd, func(r *result) map[string]metric { return r.EndToEnd }
	if traced {
		list, from = spec.PerLayer, func(r *result) map[string]metric { return r.Layer }
	}
	for _, r := range results {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for _, m := range list {
			if !m.Gated || !m.appliesTo(r.Workload) {
				continue
			}
			v, ok := from(r)[m.Name]
			if !ok || v.absent() {
				return nil, fmt.Errorf("%s: gated metric %s is absent", r.Workload, m.Name)
			}
			name := m.Name
			if len(results) > 1 {
				name = r.Workload + "/" + name
			}
			out.Metrics[name] = metric{Value: v.Value, Unit: v.Unit}
		}
	}
	return json.Marshal(out)
}
