package estimator

import (
	"fmt"
	"runtime"
	"testing"

	"dqm/internal/votes"
	"dqm/internal/xrand"
)

// prefixTrend is a reference trend detector over the whole series: prefix[i]
// is the float64 sum of the majority counts of the first i tasks, and a
// window's halves are differences of it.
type prefixTrend struct {
	window    int
	prefix    []float64
	lastTrend Trend
}

func (o *prefixTrend) endTask(maj int64) {
	if len(o.prefix) == 0 {
		o.prefix = append(o.prefix, 0)
	}
	o.prefix = append(o.prefix, o.prefix[len(o.prefix)-1]+float64(maj))
	o.trend()
}

func (o *prefixTrend) trend() Trend {
	t := max(len(o.prefix)-1, 0)
	if t < 4 {
		return o.lastTrend
	}
	w := o.window
	if w <= 0 {
		w = t / 3
		if w < 12 {
			w = 12
		}
	}
	if w > t {
		w = t
	}
	half := w / 2
	sum := func(from, to int) float64 { return o.prefix[to] - o.prefix[from] }
	recent := sum(t-half, t) / float64(half)
	older := sum(t-2*half, t-half) / float64(half)
	diff := recent - older
	tol := 0.75
	if lvl := 0.02 * recent; lvl > tol {
		tol = lvl
	}
	switch {
	case diff > tol:
		o.lastTrend = TrendUp
	case diff < -tol:
		o.lastTrend = TrendDown
	}
	return o.lastTrend
}

// totalUnder is Estimate's Total under trend tr, from est's other fields.
func totalUnder(est SwitchEstimate, tr Trend) float64 {
	var total float64
	switch tr {
	case TrendUp:
		total = est.Majority + est.XiPos
	case TrendDown:
		total = est.Majority - est.XiNeg
	default:
		total = est.Majority + est.XiPos - est.XiNeg
	}
	if total < 0 {
		total = 0
	}
	return total
}

// TestTrendMatchesPrefixOracle feeds random streams whose majority count
// drifts up and down to a SwitchEstimator and to the prefix-sum detector it
// replaced, with the adaptive window and with fixed windows of 1 to 101
// tasks, and resets both midway. After every task, Estimate's Trend and Total
// must equal the oracle's bit for bit, and over a stream every window wide
// enough to see a trend must detect both directions.
func TestTrendMatchesPrefixOracle(t *testing.T) {
	const n, tasks = 60, 3000
	for _, window := range []int{0, 1, 2, 3, 5, 12, 13, 40, 101} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			rng := xrand.New(uint64(29 + window))
			e := NewSwitch(n, SwitchConfig{TrendWindow: window})
			o := &prefixTrend{window: window}
			seen := map[Trend]bool{}
			p := 0.5 // the share of dirty votes, a random walk
			for k := 0; k < tasks; k++ {
				if k == tasks/2 {
					e.Reset()
					o = &prefixTrend{window: window}
				}
				p = min(0.95, max(0.05, p+0.08*(rng.Float64()-0.5)))
				for j := 1 + rng.IntN(6); j > 0; j-- {
					e.Observe(votes.Vote{Item: rng.IntN(n), Label: drawLabel(rng, p)})
				}
				e.EndTask()
				o.endTask(e.Tracker().Majority())
				est := e.Estimate()
				want := o.trend()
				if est.Trend != want || est.Total != totalUnder(est, want) {
					t.Fatalf("task %d: trend %v, total %v; the prefix oracle reads %v, %v",
						k, est.Trend, est.Total, want, totalUnder(est, want))
				}
				seen[est.Trend] = true
			}
			if window != 1 && (!seen[TrendUp] || !seen[TrendDown]) {
				t.Fatalf("trends seen %v, want up and down", seen)
			}
		})
	}
}

// TestTrendFootprint: the trend series keeps only the majority counts its
// window can still read. A 1,000-item estimator fed 4 M one-vote tasks may
// grow its live heap by at most 3 B per task with the adaptive window, which
// reads the last third of the series, and by at most 0.05 B per task with a
// fixed window of 100 tasks. A series that keeps a float64 for every task
// (8 B per task) fails both.
func TestTrendFootprint(t *testing.T) {
	const n, tasks = 1000, 4_000_000
	for _, c := range []struct {
		window int
		limit  float64
	}{{0, 3}, {100, 0.05}} {
		rng := xrand.New(4)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		e := NewSwitch(n, SwitchConfig{TrendWindow: c.window})
		for k := 0; k < tasks; k++ {
			e.Observe(votes.Vote{Item: k % n, Label: drawLabel(rng, 0.2)})
			e.EndTask()
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(e)
		per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / tasks
		t.Logf("window %d: %.3f B of live heap per task", c.window, per)
		if per > c.limit {
			t.Fatalf("window %d: %.3f B of live heap per task, want <= %v", c.window, per, c.limit)
		}
	}
}
