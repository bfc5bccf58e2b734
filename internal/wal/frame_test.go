package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"dqm/internal/votelog"
	"dqm/internal/votes"
)

// TestOversizedBatchIsRefused lowers the frame bound and checks both sides of
// it: a batch that fits a frame of its own but not the open one seals what
// was staged first, and a batch that cannot fit even alone is refused with
// ErrBatchTooLarge, stages nothing and leaves the journal healthy. Rotation,
// compaction and recovery all go on working afterwards, and no frame on disk
// exceeds the bound.
func TestOversizedBatchIsRefused(t *testing.T) {
	defer func(old int) { maxFramePayload = old }(maxFramePayload)
	maxFramePayload = 64
	s := testStore(t, Options{Fsync: FsyncNever, SegmentBytes: 256, CompactAfter: 256})
	j, err := s.Create(Meta{ID: "big", Items: 1000})
	if err != nil {
		t.Fatal(err)
	}
	var want []op
	// batch builds k votes on distinct workers (no shared worker: two bytes a
	// vote and more), appending their ops to want when keep is set.
	batch := func(k, base int, keep bool) []votes.Vote {
		b := make([]votes.Vote, k)
		for i := range b {
			b[i] = mkVote(base+i, i, i%2 == 0)
			if keep {
				want = append(want, op{Kind: opVote, Item: b[i].Item, Worker: b[i].Worker, Dirty: b[i].Label == votes.Dirty})
			}
		}
		return b
	}
	var cols votelog.VoteColumns
	for round := 0; round < 12; round++ {
		// About 40 bytes staged, then a batch of about 40 more: it fits
		// alone, so the staged batches are sealed before it.
		for i := 0; i < 2; i++ {
			if err := j.Append(batch(9, round, true), true, -1); err != nil {
				t.Fatal(err)
			}
			want = append(want, op{Kind: opEnd})
		}
		// 40 votes need at least 80 bytes: refused whole.
		if err := j.Append(batch(40, 100, false), true, -1); !errors.Is(err, ErrBatchTooLarge) {
			t.Fatalf("round %d: oversized Append: err = %v, want ErrBatchTooLarge", round, err)
		}
		cols.Reset()
		for _, v := range batch(40, 200, false) {
			cols.Append(int32(v.Item), int32(v.Worker), v.Label == votes.Dirty)
		}
		if err := j.StageColumns(&cols, 0, cols.Len(), true, -1); !errors.Is(err, ErrBatchTooLarge) {
			t.Fatalf("round %d: oversized StageColumns: err = %v, want ErrBatchTooLarge", round, err)
		}
		// The journal stays healthy: a batch that fits goes through.
		cols.Reset()
		for _, v := range batch(3, 300+round, true) {
			cols.Append(int32(v.Item), int32(v.Worker), v.Label == votes.Dirty)
		}
		if err := j.StageColumns(&cols, 0, cols.Len(), true, 7); err != nil {
			t.Fatalf("round %d: StageColumns after a refusal: %v", round, err)
		}
		if err := j.Commit(); err != nil {
			t.Fatal(err)
		}
		want = append(want, op{Kind: opEnd}, op{Kind: opWindow, Item: 7})
	}
	if j.snapSeq == 0 {
		t.Fatal("no compaction happened despite tiny thresholds")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, segs, err := listFiles(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range segs {
		res, _, err := scanSegment(segPath(j.Dir(), seq), Hooks{}, nil)
		if err != nil || !res.clean {
			t.Fatalf("segment %d: clean=%v err=%v: a frame exceeds the bound", seq, res.clean, err)
		}
	}
	var got []op
	j2, err := s.Recover("big", recHooks(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %d ops, want %d: a refused batch left a trace or an accepted one was lost", len(got), len(want))
	}
}

// TestNewSegmentNamesAreSynced records every directory fsync through the
// testSyncDir hook. Create must sync the session directory once, after both
// meta.json and the first segment exist, and then the store directory; every
// segment made later, by rotation or by recovery, must be in its directory's
// listing at some later fsync of that directory.
func TestNewSegmentNamesAreSynced(t *testing.T) {
	type call struct {
		dir   string
		names []string
	}
	var (
		mu    sync.Mutex
		calls []call
	)
	testSyncDir = func(dir string) {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Error(err)
		}
		c := call{dir: dir}
		for _, e := range ents {
			c.names = append(c.names, e.Name())
		}
		mu.Lock()
		calls = append(calls, c)
		mu.Unlock()
	}
	defer func() { testSyncDir = nil }()
	// synced reports whether some recorded fsync of dir listed name.
	synced := func(dir, name string) bool {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range calls {
			if c.dir == dir && slices.Contains(c.names, name) {
				return true
			}
		}
		return false
	}

	s := testStore(t, Options{Fsync: FsyncAlways, SegmentBytes: 128})
	j, err := s.Create(Meta{ID: "names", Items: 20})
	if err != nil {
		t.Fatal(err)
	}
	sess := j.Dir()
	mu.Lock()
	got := append([]call(nil), calls...)
	mu.Unlock()
	want := []call{
		{dir: sess, names: []string{"meta.json", filepath.Base(segPath(sess, 1))}},
		{dir: s.Dir(), names: []string{"names"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Create's directory fsyncs:\n got %+v\nwant %+v", got, want)
	}

	journalN(t, j, 40, 20, 8) // rotates every few batches
	if j.seq < 3 {
		t.Fatalf("only %d segments: no rotation to check", j.seq)
	}
	for seq := uint64(2); seq <= j.seq; seq++ {
		if !synced(sess, filepath.Base(segPath(sess, seq))) {
			t.Fatalf("rotation made segment %d with no fsync of its directory", seq)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery recreates a final segment torn at its header, and creates
	// the first segment of a session that has none.
	last := j.seq
	if err := os.WriteFile(segPath(sess, last+1), []byte("DQ"), 0o644); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	calls = nil
	mu.Unlock()
	j2, err := s.Recover("names", Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if !synced(sess, filepath.Base(segPath(sess, last+1))) {
		t.Fatal("recovery recreated a torn segment with no fsync of its directory")
	}
	j3, err := s.Create(Meta{ID: "bare", Items: 5})
	if err != nil {
		t.Fatal(err)
	}
	j3.Close()
	if err := os.Remove(segPath(j3.Dir(), 1)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	calls = nil
	mu.Unlock()
	j4, err := s.Recover("bare", Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	j4.Close()
	if !synced(j3.Dir(), filepath.Base(segPath(j3.Dir(), 1))) {
		t.Fatal("recovery created a segment with no fsync of its directory")
	}
}
