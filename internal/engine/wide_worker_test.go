package engine

import (
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"dqm/internal/votes"
	"dqm/internal/wal"
)

// TestDurableWideWorkersMatchInMemory: JSON and library ingest accept any
// int worker id, so a durable session must journal and recover workers
// outside int32. Shared-worker and mixed batches of such workers go through
// Append and Record, across task boundaries, window rotations and a Reset.
// The session must reopen, before and after a forced compaction, with the
// NumWorkers, Tasks, TotalVotes, Version, estimates and windowed views of an
// in-memory session fed the same stream.
//
// Before the reset both sessions take the votes one at a time, so the reset
// publishes the same version on both. After it the durable session takes
// batches and the reference takes their votes one at a time: that is the
// count a replay makes, since the version is recounted from the reset.
func TestDurableWideWorkersMatchInMemory(t *testing.T) {
	const n = 30
	wide := []int{1 << 40, -(1 << 40), math.MaxInt32 + 1, math.MinInt32 - 1}
	rng := rand.New(rand.NewSource(27))
	worker := func() int {
		if rng.Intn(2) == 0 {
			return wide[rng.Intn(len(wide))]
		}
		return rng.Intn(5)
	}
	vote := func(w int) votes.Vote {
		label := votes.Clean
		if rng.Intn(2) == 0 {
			label = votes.Dirty
		}
		return votes.Vote{Item: rng.Intn(n), Worker: w, Label: label}
	}

	dir := t.TempDir()
	cfg := Config{WAL: wal.Options{Fsync: wal.FsyncNever}}
	e, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() }) // the engine open last
	s, err := e.Create("wide", n, windowedSessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	ref := NewSession("ref", n, windowedSessionCfg())

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// record and endTask feed both sessions alike; batch feeds s the batch
	// and ref its votes one at a time.
	record := func(v votes.Vote) {
		must(s.Record(v.Item, v.Worker, v.Label == votes.Dirty))
		must(ref.Record(v.Item, v.Worker, v.Label == votes.Dirty))
	}
	endTask := func() {
		must(s.EndTask())
		must(ref.EndTask())
	}
	batch := func(b []votes.Vote, end bool) {
		must(s.Append(b, end))
		for _, v := range b {
			must(ref.Record(v.Item, v.Worker, v.Label == votes.Dirty))
		}
		if end {
			must(ref.EndTask())
		}
	}
	// tasks feeds k tasks of batches: a wide shared worker, a mixed batch,
	// a batch whose votes join the next task, and Record calls ending a
	// task. Seven window tasks with stride 3 rotate within a dozen tasks.
	tasks := func(k int) {
		for i := 0; i < k; i++ {
			size := 1 + rng.Intn(6)
			b := make([]votes.Vote, size)
			switch i % 4 {
			case 0:
				w := wide[i/4%len(wide)]
				for j := range b {
					b[j] = vote(w)
				}
				batch(b, true)
			case 1:
				for j := range b {
					b[j] = vote(worker())
				}
				b[0].Worker = wide[rng.Intn(len(wide))]
				batch(b, true)
			case 2:
				for j := range b {
					b[j] = vote(worker())
				}
				batch(b, false)
				batch([]votes.Vote{vote(wide[0]), vote(wide[1])}, true)
			case 3:
				for j := 0; j < size; j++ {
					record(vote(worker()))
				}
				endTask()
			}
		}
	}
	check := func(when string) {
		t.Helper()
		if got, want := captureWinState(s), captureWinState(ref); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: recovered state\n got %+v\nwant %+v", when, got, want)
		}
		if got, want := s.NumWorkers(), ref.NumWorkers(); got != want {
			t.Fatalf("%s: NumWorkers %d, want %d", when, got, want)
		}
		if got, want := s.Version(), ref.Version(); got != want {
			t.Fatalf("%s: Version %d, want %d", when, got, want)
		}
	}
	reopen := func(when string, cfg Config) {
		t.Helper()
		must(e.Close())
		if e, err = Open(dir, cfg); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		var ok bool
		if s, ok = e.Get("wide"); !ok {
			t.Fatalf("%s: session not recovered", when)
		}
		check(when)
	}
	snapshots := func() int {
		t.Helper()
		m, err := filepath.Glob(filepath.Join(dir, "*", "snap-*.bin"))
		must(err)
		return len(m)
	}

	for i := 0; i < 12; i++ {
		for k := 0; k < 1+i%3; k++ {
			record(vote(worker()))
		}
		endTask()
	}
	must(s.Reset())
	must(ref.Reset())
	tasks(24)
	if ref.NumWorkers() < len(wide) {
		t.Fatalf("the stream holds %d workers, want every wide one", ref.NumWorkers())
	}
	reopen("reopen without compaction", cfg)
	if k := snapshots(); k != 0 {
		t.Fatalf("%d snapshots before the forced compaction, want none", k)
	}

	// Small segments rotate while the next tasks are journaled, so Close's
	// checkpoint compacts: the snapshot drops what preceded the reset.
	small := cfg
	small.WAL.SegmentBytes = 256
	reopen("reopen with small segments", small)
	tasks(24)
	reopen("reopen after a forced compaction", small)
	if k := snapshots(); k != 1 {
		t.Fatalf("%d snapshots after the forced compaction, want 1", k)
	}
	tasks(8)
	reopen("reopen after more tasks", cfg)
}
