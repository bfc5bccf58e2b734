package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"dqm/internal/votelog"
	"dqm/internal/votes"
	"dqm/internal/wal"
)

// TestAlwaysAcknowledgesOnlySealedFrames: under FsyncAlways, whenever Append
// or AppendLog returns, what it journaled is in an intact frame on disk. The
// active segment ends exactly at a frame boundary, one more frame than
// before at least, and a copy of the data dir taken then recovers the live
// session's state, window views included.
func TestAlwaysAcknowledgesOnlySealedFrames(t *testing.T) {
	const n = 40
	dir := t.TempDir()
	e, err := Open(Config{DataDir: dir, WAL: wal.Options{Fsync: wal.FsyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s, err := e.Create("ack", n, windowedSessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	vote := func() votes.Vote {
		return votes.Vote{Item: rng.Intn(n), Worker: rng.Intn(5), Label: votes.Label(rng.Intn(2))}
	}
	frames := 0
	for step := 0; step < 24; step++ {
		if step%2 == 0 {
			batch := []votes.Vote{vote(), vote(), vote()}
			if err := s.Append(batch, rng.Intn(3) != 0); err != nil {
				t.Fatal(err)
			}
		} else {
			blocks := make([]votelog.TaskBlock, 1+rng.Intn(3))
			for i := range blocks {
				blocks[i].Task = int32(i)
				for k := 0; k < 1+rng.Intn(4); k++ {
					v := vote()
					blocks[i].Raw = votelog.AppendBinaryVote(blocks[i].Raw, int32(v.Item), int32(v.Worker), v.Label == votes.Dirty)
				}
			}
			if _, _, err := s.AppendLog(blocks); err != nil {
				t.Fatal(err)
			}
		}
		got, clean := countFrames(t, activeSegment(t, dir, "ack"))
		if !clean {
			t.Fatalf("step %d: acknowledged, but the segment does not end at an intact frame", step)
		}
		if got <= frames {
			t.Fatalf("step %d: acknowledged with %d frames on disk, as before it", step, got)
		}
		frames = got

		clone := t.TempDir()
		copyDir(t, dir, clone)
		e2, err := Open(durableConfig(clone))
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		s2, ok := e2.Get("ack")
		if !ok {
			t.Fatalf("step %d: session not recovered", step)
		}
		if got, want := captureWinState(s2), captureWinState(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: recovered votes=%d tasks=%d, live votes=%d tasks=%d", step, got.votes, got.tasks, want.votes, want.tasks)
		}
		e2.Close()
	}
}

// TestRecoveryAllocatesPerSessionNotPerTask: replaying a 1,000-task windowed
// session through a warm replay scratch allocates at most a few dozen objects
// more than replaying a 10-task one. Neither the segment read buffer nor a
// sealed window's pending rotation may cost an allocation per task, which
// would add about a thousand. The few dozen are tables that grow with the
// largest vote count an item holds, doubling as they go (4,000 tasks add
// about a dozen more).
func TestRecoveryAllocatesPerSessionNotPerTask(t *testing.T) {
	const n = 200
	dir := t.TempDir()
	cfg := Config{DataDir: dir, WAL: wal.Options{Fsync: wal.FsyncNever}}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct {
		id    string
		tasks int
	}{{"short", 10}, {"long", 1000}} {
		s, err := e.Create(c.id, n, windowedSessionCfg())
		if err != nil {
			t.Fatal(err)
		}
		for task := 0; task < c.tasks; task++ {
			w := rng.Intn(4) // few workers: the worker set stops growing at once
			batch := []votes.Vote{{Item: rng.Intn(n), Worker: w}, {Item: rng.Intn(n), Worker: w, Label: votes.Dirty}, {Item: rng.Intn(n), Worker: w}}
			if err := s.Append(batch, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// An engine on the store with nothing recovered, so each replay below is
	// the only holder of its journal.
	r := newEngine(cfg)
	if r.store, err = wal.OpenStore(dir, cfg.WAL); err != nil {
		t.Fatal(err)
	}
	defer r.store.Close()
	var sc replayScratch
	allocs := func(id string) float64 {
		return testing.AllocsPerRun(5, func() {
			s, err := r.recoverSession(id, &sc)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.closeJournal(); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs("short"), allocs("long")
	if long > short+50 {
		t.Fatalf("replaying 1000 tasks allocates %.0f objects, 10 tasks %.0f: recovery allocates per task", long, short)
	}
}
