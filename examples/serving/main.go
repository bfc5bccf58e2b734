// Serving example: many cleaning campaigns sharing one estimation engine.
// Three datasets are cleaned concurrently by simulated crowds; each streams
// its votes into its own engine session from its own goroutine — the shape
// cmd/dqm-serve exposes over HTTP, shown here in-process. One campaign also
// rolls back 100 tasks mid-stream. Every estimate is a deterministic function
// of the vote stream, so the rollback is a Reset followed by a replay of the
// tasks it keeps; the example exits 1 unless every session's estimates equal
// those of a fresh Recorder fed the same retained tasks.
//
// Run with: go run ./examples/serving
package main

import (
	"fmt"
	"os"
	"reflect"
	"sort"
	"sync"

	"dqm"
	"dqm/internal/crowd"
	"dqm/internal/dataset"
)

type campaign struct {
	id     string
	nItems int
	nDirty int
	nTasks int
	crowd  crowd.Profile
}

func main() {
	campaigns := []campaign{
		{"restaurant-dedup", 1500, 110, 700, crowd.Profile{FPRate: 0.02, FNRate: 0.20, Jitter: 0.2}},
		{"address-audit", 3000, 240, 900, crowd.Profile{FPRate: 0.005, FNRate: 0.12}},
		{"product-match", 800, 60, 500, crowd.Profile{FPRate: 0.01, FNRate: 0.30, Jitter: 0.3}},
	}

	eng := dqm.NewEngine(dqm.EngineConfig{Shards: 8})
	truths := make(map[string]int, len(campaigns))
	// retained[ci] holds the task batches campaign ci's session kept.
	sessions := make([]*dqm.Session, len(campaigns))
	retained := make([][][]dqm.Vote, len(campaigns))

	var wg sync.WaitGroup
	for ci, c := range campaigns {
		pop := dataset.NewPlantedPopulation(c.nItems, c.nDirty, uint64(100+ci), c.id)
		truths[c.id] = pop.NumDirty()
		sess, err := eng.CreateSession(c.id, c.nItems, dqm.Defaults())
		if err != nil {
			panic(err)
		}
		sessions[ci] = sess
		sim := crowd.NewSimulator(crowd.Config{
			Truth:        pop.Truth.IsDirty,
			N:            c.nItems,
			Profile:      c.crowd,
			ItemsPerTask: 12,
			Seed:         uint64(7 * (ci + 1)),
		})
		wg.Add(1)
		go func(ci int, c campaign, sess *dqm.Session) {
			defer wg.Done()
			var tasks [][]dqm.Vote
			for t := 1; t <= c.nTasks; t++ {
				task := sim.NextTask()
				batch := make([]dqm.Vote, 0, len(task.Items))
				for i, item := range task.Items {
					batch = append(batch, dqm.Vote{Item: item, Worker: task.Worker, Dirty: task.Labels[i] == 1})
				}
				if err := sess.AppendVotes(batch, true); err != nil {
					panic(err)
				}
				tasks = append(tasks, batch)
				// The first campaign trusts its first half, keeps cleaning a
				// while, then rolls back to it — e.g. after discovering a
				// batch of bad worker submissions — by replaying that half.
				if c.id == "restaurant-dedup" && t == c.nTasks/2+100 {
					before := sess.Estimates().Switch.Total
					tasks = tasks[:c.nTasks/2]
					if err := sess.Reset(); err != nil {
						panic(err)
					}
					for _, b := range tasks {
						if err := sess.AppendVotes(b, true); err != nil {
							panic(err)
						}
					}
					fmt.Printf("[%s] rolled back 100 tasks: SWITCH %.1f -> %.1f (replayed %d tasks)\n",
						c.id, before, sess.Estimates().Switch.Total, len(tasks))
				}
			}
			retained[ci] = tasks
		}(ci, c, sess)
	}

	wg.Wait()

	fmt.Printf("\n%-18s %8s %8s %10s %10s %10s %8s\n",
		"session", "tasks", "votes", "VOTING", "SWITCH", "remaining", "truth")
	ids := eng.SessionIDs()
	sort.Strings(ids)
	for _, id := range ids {
		sess, ok := eng.Session(id)
		if !ok {
			continue
		}
		e := sess.Estimates()
		fmt.Printf("%-18s %8d %8d %10.0f %10.1f %10.1f %8d\n",
			id, sess.Tasks(), sess.TotalVotes(), e.Voting, e.Switch.Total, e.Remaining(), truths[id])
	}
	fmt.Printf("\n%d sessions served by one engine; run `go run ./cmd/dqm-serve` for the HTTP version\n",
		eng.NumSessions())

	// Reset plus replay must leave exactly the state of a fresh stream.
	for ci, c := range campaigns {
		rec := dqm.NewRecorder(c.nItems, dqm.Defaults())
		for _, batch := range retained[ci] {
			for _, v := range batch {
				rec.RecordVote(v)
			}
			rec.EndTask()
		}
		if got, want := sessions[ci].Estimates(), rec.Estimates(); !reflect.DeepEqual(got, want) {
			fmt.Fprintf(os.Stderr, "serving: session %s estimates %+v differ from a fresh replay's %+v\n", c.id, got, want)
			os.Exit(1)
		}
	}
}
