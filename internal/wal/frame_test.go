package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

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
	// batch builds k votes on distinct workers (no shared worker: a byte a
	// vote and more), appending their ops to want when keep is set.
	batch := func(k, base int, keep bool) []votes.Vote {
		b := make([]votes.Vote, k)
		for i := range b {
			b[i] = mkVote(base+i, i, i%2 == 0)
		}
		if keep {
			want = append(want, replayOps(b)...)
		}
		return b
	}
	for round := 0; round < 12; round++ {
		// About 40 bytes staged, then a batch of about 20 more: it fits
		// alone, so the staged batches are sealed before it.
		for i := 0; i < 2; i++ {
			if err := appendCommit(j, batch(9, round, true), true, -1); err != nil {
				t.Fatal(err)
			}
			want = append(want, op{Kind: opEnd})
		}
		// 40 votes on distinct workers take 87 bytes: refused whole.
		if err := appendCommit(j, batch(40, 100, false), true, -1); !errors.Is(err, ErrBatchTooLarge) {
			t.Fatalf("round %d: oversized Append: err = %v, want ErrBatchTooLarge", round, err)
		}
		if err := j.Stage(batch(40, 200, false), true, -1); !errors.Is(err, ErrBatchTooLarge) {
			t.Fatalf("round %d: oversized Stage: err = %v, want ErrBatchTooLarge", round, err)
		}
		// The journal stays healthy: a batch that fits goes through.
		if err := j.Stage(batch(3, 300+round, true), true, 7); err != nil {
			t.Fatalf("round %d: Stage after a refusal: %v", round, err)
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
	_, segs, err := listFiles(j.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range segs {
		res, _, err := scanSegment(segPath(j.dir, seq), Hooks{}, nil)
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
	testSyncDir = func(dir string) error {
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
		return nil
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
	sess := j.dir
	mu.Lock()
	got := append([]call(nil), calls...)
	mu.Unlock()
	want := []call{
		{dir: sess, names: []string{"meta.json", filepath.Base(segPath(sess, 1))}},
		{dir: s.dir, names: []string{"names"}},
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
	if err := os.Remove(segPath(j3.dir, 1)); err != nil {
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
	if !synced(j3.dir, filepath.Base(segPath(j3.dir, 1))) {
		t.Fatal("recovery created a segment with no fsync of its directory")
	}
}

// TestDirSyncErrorsAreReported injects directory fsync failures through
// testSyncDir. A create whose session or store directory cannot be synced
// returns the error, leaves no directory behind and frees its id. A rotation
// whose new segment's directory cannot be synced wedges the journal with a
// sticky error, never a panic, and recovery afterwards gives back every
// batch that was acknowledged.
func TestDirSyncErrorsAreReported(t *testing.T) {
	injected := errors.New("injected directory fsync failure")
	defer func() { testSyncDir = nil }()
	s := testStore(t, Options{Fsync: FsyncAlways, SegmentBytes: 128})
	for _, which := range []string{"store", "session"} {
		testSyncDir = func(dir string) error {
			if (dir == s.dir) == (which == "store") {
				return injected
			}
			return nil
		}
		if _, err := s.Create(Meta{ID: "c", Items: 10}); !errors.Is(err, injected) {
			t.Fatalf("create with a failing sync of the %s directory: err = %v, want the injected error", which, err)
		}
		if _, err := os.Stat(filepath.Join(s.dir, "c")); !os.IsNotExist(err) {
			t.Fatalf("a failed create left its directory behind (stat err %v)", err)
		}
	}
	testSyncDir = nil
	j, err := s.Create(Meta{ID: "c", Items: 10})
	if err != nil {
		t.Fatalf("create after the failures: %v: the id was not freed", err)
	}

	testSyncDir = func(dir string) error {
		if dir == j.dir {
			return injected
		}
		return nil
	}
	var acked []op
	var failed error
	for i := 0; i < 100 && failed == nil; i++ {
		batch := []votes.Vote{mkVote(i%10, 1, i%2 == 0), mkVote((i+3)%10, 1, false)}
		if failed = appendCommit(j, batch, true, -1); failed == nil {
			acked = append(append(acked, replayOps(batch)...), op{Kind: opEnd})
		}
	}
	if !errors.Is(failed, injected) {
		t.Fatalf("appends across a rotation whose directory sync fails: err = %v, want the injected error", failed)
	}
	if err := appendCommit(j, []votes.Vote{mkVote(1, 1, true)}, true, -1); !errors.Is(err, injected) {
		t.Fatalf("append after the failed rotation: err = %v, want the sticky injected error", err)
	}
	if err := j.Sync(); !errors.Is(err, injected) {
		t.Fatalf("Sync after the failed rotation: err = %v, want the sticky injected error", err)
	}
	j.Close()
	testSyncDir = nil
	var got []op
	j2, err := s.Recover("c", recHooks(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	// The failing batch reached the old segment before the rotation failed,
	// so it may come back too; every acknowledged one must.
	if len(got) < len(acked) || !reflect.DeepEqual(got[:len(acked)], acked) {
		t.Fatalf("recovered %d ops, want the %d acknowledged ones first", len(got), len(acked))
	}
}
