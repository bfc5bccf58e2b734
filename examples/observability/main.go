// Observability example: what the metrics plane sees while an engine works.
// A durable engine ingests a few cleaning campaigns, estimates are polled the
// way a dashboard would, and the program then prints the same Prometheus
// exposition dqm-serve serves on GET /metrics — engine ingest counters, the
// estimate-cache hit ratio, and the WAL append/fsync latency histograms.
//
// Run with: go run ./examples/observability
package main

import (
	"fmt"
	"os"
	"strings"

	"dqm"
	"dqm/internal/metrics"
	"dqm/internal/xrand"
)

func main() {
	dir, err := os.MkdirTemp("", "dqm-observability")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	eng, err := dqm.OpenEngine(dir, dqm.EngineConfig{Fsync: dqm.FsyncBatch})
	if err != nil {
		panic(err)
	}
	defer eng.Close()

	rng := xrand.New(7)
	const items, tasks, perTask = 2000, 400, 12
	for _, id := range []string{"orders", "users", "payments"} {
		sess, err := eng.CreateSession(id, items, dqm.Defaults())
		if err != nil {
			panic(err)
		}
		for t := 0; t < tasks; t++ {
			batch := make([]dqm.Vote, perTask)
			for i := range batch {
				batch[i] = dqm.Vote{
					Item:   rng.IntN(items),
					Worker: rng.IntN(20),
					Dirty:  rng.Bernoulli(0.08),
				}
			}
			if err := sess.AppendVotes(batch, true); err != nil {
				panic(err)
			}
			// A dashboard polls every task; most polls hit the lock-free
			// cache (one recompute per mutation, then hits until the next).
			sess.Estimates()
			sess.Estimates()
		}
		e := sess.Estimates()
		fmt.Printf("%-9s SWITCH=%6.1f  CHAO92=%6.1f  remaining=%5.1f\n",
			id, e.Switch.Total, e.Chao92, e.Remaining())
	}

	// The same registry dqm-serve exposes on /metrics. Here we print the
	// engine and WAL families (skipping the histogram bucket walls for
	// readability, and the timing sums so two runs print the same bytes —
	// a real scraper wants them all).
	var b strings.Builder
	if err := metrics.Default.WritePrometheus(&b); err != nil {
		panic(err)
	}
	fmt.Println("\n--- /metrics (engine + WAL families, buckets and timing sums elided) ---")
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "# HELP") || strings.Contains(line, "_bucket{") ||
			strings.Contains(line, "_seconds_sum") {
			continue
		}
		if line != "" {
			fmt.Println(line)
		}
	}
}
