package wal

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"dqm/internal/votelog"
	"dqm/internal/votes"
)

// journalConcurrent drives n appender goroutines, one per journal, through the
// store's shared syncer, mixing plain batches, columnar batches and bare
// boundaries, and sealing the open frame (Sync) after a seeded random third
// of the tasks. It returns each journal's logical op stream (the per-session
// recovery truth).
func journalConcurrent(t *testing.T, s *Store, n, tasks int) ([]*Journal, [][]op) {
	t.Helper()
	js := make([]*Journal, n)
	streams := make([][]op, n)
	for i := range js {
		j, err := s.Create(Meta{ID: fmt.Sprintf("sess-%d", i), Items: 40})
		if err != nil {
			t.Fatal(err)
		}
		js[i] = j
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range js {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + i)))
			var ops []op
			for task := 0; task < tasks; task++ {
				switch task % 3 {
				case 0: // plain vote batch
					batch := make([]votes.Vote, 1+rng.Intn(3))
					for k := range batch {
						batch[k] = mkVote(rng.Intn(40), rng.Intn(6), rng.Intn(2) == 0)
					}
					if err := appendCommit(js[i], batch, true, -1); err != nil {
						errs[i] = err
						return
					}
					ops = append(append(ops, replayOps(batch)...), op{Kind: opEnd})
				case 1: // columnar batch
					var raw []byte
					var batch []votes.Vote
					for k := 0; k < 1+rng.Intn(3); k++ {
						item, worker, dirty := int32(rng.Intn(40)), int32(rng.Intn(6)), rng.Intn(2) == 0
						raw = votelog.AppendBinaryVote(raw, item, worker, dirty)
						batch = append(batch, mkVote(int(item), int(worker), dirty))
					}
					if err := commitColumns(js[i], raw, true, -1); err != nil {
						errs[i] = err
						return
					}
					ops = append(append(ops, replayOps(batch)...), op{Kind: opEnd})
				case 2: // bare task boundary
					if err := appendCommit(js[i], nil, true, -1); err != nil {
						errs[i] = err
						return
					}
					ops = append(ops, op{Kind: opEnd})
				}
				if rng.Intn(3) == 0 {
					if err := js[i].Sync(); err != nil {
						errs[i] = err
						return
					}
				}
			}
			streams[i] = ops
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("journal %d append: %v", i, err)
		}
	}
	return js, streams
}

// TestMultiSessionTornTailThroughSharedSyncer is the crash/recovery property
// test for group commit: batches from several sessions interleave through one
// store's syncer, and truncating any one session's segment at an arbitrary
// byte offset must recover exactly a frame-aligned clean prefix of that
// session's own stream — sessions share fsync passes, never frames.
func TestMultiSessionTornTailThroughSharedSyncer(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncBatch} {
		t.Run(policy.String(), func(t *testing.T) {
			s := testStore(t, Options{Fsync: policy, BatchInterval: time.Millisecond, SegmentBytes: 1 << 20})
			js, streams := journalConcurrent(t, s, 3, 40)
			for _, j := range js {
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
			}
			for i, j := range js {
				raw, err := os.ReadFile(segPath(j.dir, 1))
				if err != nil {
					t.Fatal(err)
				}
				if n := countFrames(raw); n < 10 {
					t.Fatalf("session %d: segment holds %d frames, want at least 10 to cut through", i, n)
				}
				full := streams[i]
				prev := -1
				for cut := int64(0); ; cut += 5 {
					if cut > int64(len(raw)) {
						cut = int64(len(raw))
					}
					dir := t.TempDir()
					s2, err := OpenStore(dir, Options{Fsync: FsyncNever})
					if err != nil {
						t.Fatal(err)
					}
					id := fmt.Sprintf("sess-%d", i)
					if err := os.Mkdir(filepath.Join(dir, id), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(filepath.Join(dir, id, "meta.json"), mustMeta(t, id, 40), 0o644); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(filepath.Join(dir, id, filepath.Base(segPath(j.dir, 1))), raw[:cut], 0o644); err != nil {
						t.Fatal(err)
					}
					var got []op
					j2, err := s2.Recover(id, recHooks(&got))
					if err != nil {
						t.Fatalf("session %d cut=%d: recover: %v", i, cut, err)
					}
					j2.Close()
					if len(got) > 0 && !reflect.DeepEqual(got, full[:len(got)]) {
						t.Fatalf("session %d cut=%d: recovered ops are not a prefix of the session's own stream", i, cut)
					}
					if len(got) < prev {
						t.Fatalf("session %d cut=%d: recovered %d ops, previously %d", i, cut, len(got), prev)
					}
					prev = len(got)
					if err := s2.Close(); err != nil {
						t.Fatal(err)
					}
					if cut == int64(len(raw)) {
						break
					}
				}
				if prev != len(full) {
					t.Fatalf("session %d: full segment recovered %d ops, want %d", i, prev, len(full))
				}
			}
		})
	}
}

// TestGroupCommitSharesPasses: concurrent FsyncAlways committers must share
// syncer passes instead of each forcing its own — the syncer's pass count
// stays well under the total number of committed frames.
func TestGroupCommitSharesPasses(t *testing.T) {
	s := testStore(t, Options{Fsync: FsyncAlways, BatchInterval: 50 * time.Millisecond})
	const n, tasks = 4, 30
	js, streams := journalConcurrent(t, s, n, tasks)

	s.sy.mu.Lock()
	passes := s.sy.done
	s.sy.mu.Unlock()
	if passes == 0 {
		t.Fatal("no syncer passes ran under FsyncAlways")
	}
	// Every append under FsyncAlways waits for a pass, but concurrent waiters
	// share passes. With n appenders the pass count can approach the frame
	// count only if there was no sharing at all AND appends never overlapped;
	// allow that worst case but fail if passes exceed frames (self-timed
	// fsyncs would have snuck back in).
	totalFrames := uint64(n * tasks)
	if passes > totalFrames+2 {
		t.Fatalf("%d passes for %d frames: committers are not sharing passes", passes, totalFrames)
	}
	for i, j := range js {
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		var got []op
		j2, err := s.Recover(fmt.Sprintf("sess-%d", i), recHooks(&got))
		if err != nil {
			t.Fatal(err)
		}
		j2.Close()
		if !reflect.DeepEqual(got, streams[i]) {
			t.Fatalf("session %d: group-committed stream does not recover", i)
		}
	}
}

// TestSyncerClosedFallsBackToDirectSync: once the store (and its syncer) is
// closed, journals still open must keep committing durably via their own
// fsync — shutdown ordering must not strand acknowledged writes.
func TestSyncerClosedFallsBackToDirectSync(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Create(Meta{ID: "late", Items: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendCommit(j, []votes.Vote{mkVote(1, 0, true)}, true, -1); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	// The syncer is gone; this append must still succeed and be durable.
	if err := appendCommit(j, []votes.Vote{mkVote(2, 1, false)}, true, -1); err != nil {
		t.Fatalf("append after store close: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var got []op
	j2, err := s2.Recover("late", recHooks(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	want := []op{
		{Kind: opVote, Item: 1, Worker: 0, Dirty: true}, {Kind: opEnd},
		{Kind: opVote, Item: 2, Worker: 1, Dirty: false}, {Kind: opEnd},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-close append lost:\n got %v\nwant %v", got, want)
	}
}

// commitColumns journals raw DQMV 'V' records as binary ingest does: decoded
// into a batch, then Stage and Commit.
func commitColumns(j *Journal, raw []byte, endTask bool, windowStart int64) error {
	batch, err := votelog.DecodeVotes(nil, raw)
	if err != nil {
		return err
	}
	return appendCommit(j, batch, endTask, windowStart)
}

// TestAppendColumnsRoundTrip: batches decoded from DQMV vote records recover
// through the same Votes hook as library batches — where a batch came from
// is an ingest detail, not a recovery one.
func TestAppendColumnsRoundTrip(t *testing.T) {
	s := testStore(t, Options{Fsync: FsyncNever})
	j, err := s.Create(Meta{ID: "cols", Items: 100})
	if err != nil {
		t.Fatal(err)
	}
	var want []op
	raw := votelog.AppendBinaryVote(nil, 3, 7, true)
	raw = votelog.AppendBinaryVote(raw, 99, -4, false) // negative workers survive zigzag
	if err := commitColumns(j, raw, true, -1); err != nil {
		t.Fatal(err)
	}
	want = append(want,
		op{Kind: opVote, Item: 3, Worker: 7, Dirty: true},
		op{Kind: opVote, Item: 99, Worker: -4, Dirty: false},
		op{Kind: opEnd})
	// A columnar batch closing a window carries the rotation in the same frame.
	if err := commitColumns(j, votelog.AppendBinaryVote(nil, 5, 1, true), true, 12); err != nil {
		t.Fatal(err)
	}
	want = append(want, op{Kind: opVote, Item: 5, Worker: 1, Dirty: true}, op{Kind: opEnd}, op{Kind: opWindow, Item: 12})
	// Votes without a boundary, and a no-op empty call.
	if err := commitColumns(j, votelog.AppendBinaryVote(nil, 8, 2, false), false, -1); err != nil {
		t.Fatal(err)
	}
	want = append(want, op{Kind: opVote, Item: 8, Worker: 2, Dirty: false})
	if err := commitColumns(j, nil, false, -1); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var got []op
	j2, err := s.Recover("cols", recHooks(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("columnar round trip:\n got %v\nwant %v", got, want)
	}
}

// TestCompactionRewritesColumnarRecords: history holding the opColumns
// records earlier builds wrote must survive compaction, which rewrites it as
// sorted records: each task's votes come back with every item's votes in
// order (the history still in segments replays in arrival order).
func TestCompactionRewritesColumnarRecords(t *testing.T) {
	s := testStore(t, Options{Fsync: FsyncNever, SegmentBytes: 128, CompactAfter: 256})
	j, err := s.Create(Meta{ID: "colpack", Items: 50})
	if err != nil {
		t.Fatal(err)
	}
	var want []op
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		var raw []byte
		for k := 0; k < 1+rng.Intn(3); k++ {
			item, worker, dirty := int32(rng.Intn(50)), int32(rng.Intn(6)), rng.Intn(2) == 0
			raw = votelog.AppendBinaryVote(raw, item, worker, dirty)
			want = append(want, op{Kind: opVote, Item: int(item), Worker: int(worker), Dirty: dirty})
		}
		if err := commitPayload(j, append(appendColumns(nil, raw), opEnd)); err != nil {
			t.Fatal(err)
		}
		want = append(want, op{Kind: opEnd})
	}
	if j.snapSeq == 0 {
		t.Fatal("no compaction happened despite tiny thresholds")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var got []op
	j2, err := s.Recover("colpack", recHooks(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !reflect.DeepEqual(byItemRuns(got), byItemRuns(want)) {
		t.Fatalf("columnar history lost through compaction: got %d ops, want %d", len(got), len(want))
	}
}

// TestRecoverWideWorkersFromLegacyRecords: the opVote and opBlock records of
// earlier builds carry any int worker, so a segment holding workers outside
// int32 in both, shared and per vote, must replay them with each item's
// votes in order, and compaction must carry them into its snapshot.
func TestRecoverWideWorkersFromLegacyRecords(t *testing.T) {
	s := testStore(t, Options{Fsync: FsyncNever, SegmentBytes: 128, CompactAfter: 256})
	j, err := s.Create(Meta{ID: "legacywide", Items: 50})
	if err != nil {
		t.Fatal(err)
	}
	wide := []int{1 << 40, -(1 << 40), math.MaxInt32 + 1, math.MinInt32 - 1}
	var want []op
	keep := func(b []votes.Vote) []votes.Vote {
		for _, v := range b {
			want = append(want, op{Kind: opVote, Item: v.Item, Worker: v.Worker, Dirty: v.Label == votes.Dirty})
		}
		return b
	}
	rng := rand.New(rand.NewSource(40))
	for i := 0; i < 120; i++ {
		w := wide[i%len(wide)]
		var p []byte
		switch i % 3 {
		case 0: // one opVote per vote
			for _, v := range keep([]votes.Vote{mkVote(rng.Intn(50), w, true), mkVote(rng.Intn(50), 3, false)}) {
				p = appendVote(p, v)
			}
		case 1: // a block sharing a wide worker
			p = appendBlock(nil, keep([]votes.Vote{mkVote(rng.Intn(50), w, false), mkVote(rng.Intn(50), w, true)}))
		case 2: // a block of mixed workers
			p = appendBlock(nil, keep([]votes.Vote{mkVote(rng.Intn(50), 2, true), mkVote(rng.Intn(50), w, false), mkVote(rng.Intn(50), -w, true)}))
		}
		if err := commitPayload(j, append(p, opEnd)); err != nil {
			t.Fatal(err)
		}
		want = append(want, op{Kind: opEnd})
	}
	if j.snapSeq == 0 {
		t.Fatal("no compaction happened despite tiny thresholds")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var got []op
	j2, err := s.Recover("legacywide", recHooks(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !reflect.DeepEqual(byItemRuns(got), byItemRuns(want)) {
		t.Fatalf("wide workers lost: got %d ops, want %d\n got %v\nwant %v", len(got), len(want), got, want)
	}
}
