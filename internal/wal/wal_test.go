package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dqm/internal/votes"
)

// op mirrors one replayed record for comparison.
type op struct {
	Kind   byte
	Item   int
	Worker int
	Dirty  bool
}

// recHooks collects replayed records. Window starts are recorded in Item.
func recHooks(out *[]op) Hooks {
	return Hooks{
		Vote: func(item, worker int, dirty bool) error {
			*out = append(*out, op{Kind: opVote, Item: item, Worker: worker, Dirty: dirty})
			return nil
		},
		EndTask: func() { *out = append(*out, op{Kind: opEnd}) },
		Reset:   func() { *out = append(*out, op{Kind: opReset}) },
		Window: func(start int64) error {
			*out = append(*out, op{Kind: opWindow, Item: int(start)})
			return nil
		},
	}
}

// applyReset collapses a logical op stream the way recovery state would see
// it: a reset discards everything before it.
func applyReset(ops []op) []op {
	out := ops[:0:0]
	for _, o := range ops {
		if o.Kind == opReset {
			out = out[:0]
			continue
		}
		out = append(out, o)
	}
	return out
}

func testStore(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := OpenStore(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func mkVote(item, worker int, dirty bool) votes.Vote {
	l := votes.Clean
	if dirty {
		l = votes.Dirty
	}
	return votes.Vote{Item: item, Worker: worker, Label: l}
}

func TestJournalRoundTrip(t *testing.T) {
	s := testStore(t, Options{Fsync: FsyncNever})
	j, err := s.Create(Meta{ID: "rt", Items: 100, CreatedAt: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	var want []op
	append1 := func(batch []votes.Vote, end bool) {
		if err := j.Append(batch, end, -1); err != nil {
			t.Fatal(err)
		}
		for _, v := range batch {
			want = append(want, op{Kind: opVote, Item: v.Item, Worker: v.Worker, Dirty: v.Label == votes.Dirty})
		}
		if end {
			want = append(want, op{Kind: opEnd})
		}
	}
	append1([]votes.Vote{mkVote(1, 0, true), mkVote(2, 1, false)}, true)
	append1([]votes.Vote{mkVote(3, -7, true)}, false) // negative worker ids survive zigzag
	if err := j.Append(nil, true, -1); err != nil {
		t.Fatal(err)
	}
	want = append(want, op{Kind: opEnd})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var got []op
	j2, err := s.Recover("rt", recHooks(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered ops mismatch:\n got %v\nwant %v", got, want)
	}
	// The recovered journal keeps appending where the old one stopped.
	if err := j2.Append([]votes.Vote{mkVote(9, 2, true)}, true, -1); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	var got3 []op
	j3, err := s.Recover("rt", recHooks(&got3))
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	want = append(want, op{Kind: opVote, Item: 9, Worker: 2, Dirty: true}, op{Kind: opEnd})
	if !reflect.DeepEqual(got3, want) {
		t.Fatalf("after reopen+append:\n got %v\nwant %v", got3, want)
	}
}

// TestAppendRotationRoundTrip: a window rotation shares its frame with the
// task boundary that sealed it, and both survive a reopen in order.
func TestAppendRotationRoundTrip(t *testing.T) {
	s := testStore(t, Options{Fsync: FsyncNever})
	j, err := s.Create(Meta{ID: "rot", Items: 50, CreatedAt: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	var want []op
	batch := []votes.Vote{mkVote(4, 1, true), mkVote(9, 2, false)}
	if err := j.Append(batch, true, 30); err != nil {
		t.Fatal(err)
	}
	for _, v := range batch {
		want = append(want, op{Kind: opVote, Item: v.Item, Worker: v.Worker, Dirty: v.Label == votes.Dirty})
	}
	want = append(want, op{Kind: opEnd}, op{Kind: opWindow, Item: 30})
	// A bare rotation boundary (EndTask with no votes) works too.
	if err := j.Append(nil, true, 40); err != nil {
		t.Fatal(err)
	}
	want = append(want, op{Kind: opEnd}, op{Kind: opWindow, Item: 40})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var got []op
	j2, err := s.Recover("rot", recHooks(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rotation round trip:\n got %v\nwant %v", got, want)
	}
}

// TestCompactionPreservesWindowRecords: snapshot rewrites must carry window
// rotations through, or recovered windowed state would silently lose its
// boundary verification.
func TestCompactionPreservesWindowRecords(t *testing.T) {
	s := testStore(t, Options{Fsync: FsyncNever, SegmentBytes: 128, CompactAfter: 256})
	j, err := s.Create(Meta{ID: "winpack", Items: 30})
	if err != nil {
		t.Fatal(err)
	}
	var want []op
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		batch := []votes.Vote{mkVote(rng.Intn(30), rng.Intn(5), rng.Intn(2) == 0)}
		want = append(want, op{Kind: opVote, Item: batch[0].Item, Worker: batch[0].Worker, Dirty: batch[0].Label == votes.Dirty})
		if i%5 == 4 {
			start := int64(i - 4)
			if err := j.Append(batch, true, start); err != nil {
				t.Fatal(err)
			}
			want = append(want, op{Kind: opEnd}, op{Kind: opWindow, Item: int(start)})
		} else {
			if err := j.Append(batch, true, -1); err != nil {
				t.Fatal(err)
			}
			want = append(want, op{Kind: opEnd})
		}
	}
	if j.snapSeq == 0 {
		t.Fatal("no compaction happened despite tiny thresholds")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var got []op
	j2, err := s.Recover("winpack", recHooks(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("window records lost through compaction: got %d ops, want %d", len(got), len(want))
	}
}

func TestClosedJournalRefusesWrites(t *testing.T) {
	s := testStore(t, Options{})
	j, err := s.Create(Meta{ID: "closed", Items: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]votes.Vote{mkVote(0, 0, true)}, false, -1); err != ErrClosed {
		t.Fatalf("append on closed journal: got %v, want ErrClosed", err)
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	s := testStore(t, Options{})
	j, err := s.Create(Meta{ID: "dup", Items: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := s.Create(Meta{ID: "dup", Items: 1}); err == nil {
		t.Fatal("duplicate create succeeded")
	}
}

func TestDirEncodingWeirdIDs(t *testing.T) {
	s := testStore(t, Options{})
	ids := []string{"plain", "with.dots-and_underscores", "sp ace", "sl/ash", "..", "-dash", "ünïcode", "%percent",
		"#hash", strings.Repeat("long/", 80) + "id"} // > maxHexID bytes → hashed dir name
	for _, id := range ids {
		j, err := s.Create(Meta{ID: id, Items: 1})
		if err != nil {
			t.Fatalf("create %q: %v", id, err)
		}
		j.Close()
		if !s.Exists(id) {
			t.Fatalf("Exists(%q) = false after create", id)
		}
	}
	got, err := s.IDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ids) {
		t.Fatalf("IDs() = %v, want %d ids", got, len(ids))
	}
	seen := map[string]bool{}
	for _, id := range got {
		seen[id] = true
	}
	for _, id := range ids {
		if !seen[id] {
			t.Fatalf("id %q missing from IDs() = %v", id, got)
		}
	}
	removed, err := s.Delete("sl/ash")
	if err != nil {
		t.Fatal(err)
	}
	if !removed {
		t.Fatal("Delete(sl/ash) reported nothing removed")
	}
	if s.Exists("sl/ash") {
		t.Fatal("session survives Delete")
	}
	if removed, err := s.Delete("never-existed"); err != nil || removed {
		t.Fatalf("Delete(never-existed) = (%v, %v), want (false, nil)", removed, err)
	}
}

// journalN appends n tasks of one to four votes, returning the logical op
// stream.
func journalN(t *testing.T, j *Journal, n, itemSpace int, seed int64) []op {
	t.Helper()
	return journalSealed(t, j, n, itemSpace, seed, 0)
}

// journalSealed is journalN that also seals the open frame after about one
// append in sealOdds (none when 0), through Sync or Checkpoint, both drawn
// from a second rng seeded from seed: a segment written under FsyncNever
// then holds many frames of a few batches each. The op stream is journalN's
// for the same seed.
func journalSealed(t *testing.T, j *Journal, n, itemSpace int, seed int64, sealOdds int) []op {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sealRng := rand.New(rand.NewSource(^seed))
	var ops []op
	for i := 0; i < n; i++ {
		batch := make([]votes.Vote, 1+rng.Intn(4))
		for k := range batch {
			batch[k] = mkVote(rng.Intn(itemSpace), rng.Intn(5), rng.Intn(2) == 0)
			ops = append(ops, op{Kind: opVote, Item: batch[k].Item, Worker: batch[k].Worker, Dirty: batch[k].Label == votes.Dirty})
		}
		if err := j.Append(batch, true, -1); err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op{Kind: opEnd})
		if sealOdds > 0 && sealRng.Intn(sealOdds) == 0 {
			seal := j.Sync
			if sealRng.Intn(2) == 0 {
				seal = j.Checkpoint
			}
			if err := seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ops
}

// countFrames counts the frames of a segment's bytes up to the first one that
// is torn or fails its CRC.
func countFrames(raw []byte) int {
	frames, off := 0, len(segMagic)
	for off < len(raw) {
		size, k := binary.Uvarint(raw[off:])
		if k <= 0 || off+k+4+int(size) > len(raw) {
			break
		}
		payload := raw[off+k+4 : off+k+4+int(size)]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(raw[off+k:]) {
			break
		}
		off += k + 4 + int(size)
		frames++
	}
	return frames
}

func TestRotationAndCompaction(t *testing.T) {
	s := testStore(t, Options{Fsync: FsyncNever, SegmentBytes: 256, CompactAfter: 512})
	j, err := s.Create(Meta{ID: "compact", Items: 50})
	if err != nil {
		t.Fatal(err)
	}
	want := journalN(t, j, 400, 50, 1)
	if j.snapSeq == 0 {
		t.Fatal("no compaction happened despite tiny thresholds")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Covered segments are deleted; only the snapshot and the tail remain.
	snaps, segs, err := listFiles(j.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("want exactly 1 snapshot, got %v", snaps)
	}
	for _, seq := range segs {
		if seq <= snaps[0] {
			t.Fatalf("segment %d not deleted though snapshot %d covers it", seq, snaps[0])
		}
	}
	var got []op
	j2, err := s.Recover("compact", recHooks(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered stream differs after compaction: got %d ops, want %d", len(got), len(want))
	}
}

func TestResetTruncatesCompactedHistory(t *testing.T) {
	s := testStore(t, Options{Fsync: FsyncNever, SegmentBytes: 128, CompactAfter: 1})
	j, err := s.Create(Meta{ID: "reset", Items: 20})
	if err != nil {
		t.Fatal(err)
	}
	pre := journalN(t, j, 50, 20, 2)
	if err := j.Reset(51); err != nil {
		t.Fatal(err)
	}
	// The reset's version goes to meta.json before the reset is journaled,
	// and a policy update keeps it.
	if err := s.SetPolicy("reset", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if m, err := s.ReadMeta("reset"); err != nil || m.ResetVersion != 51 || string(m.Policy) != `{}` {
		t.Fatalf("meta after Reset(51) and a policy update: %+v, %v", m, err)
	}
	post := journalN(t, j, 50, 20, 3)
	if err := j.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var got []op
	j2, err := s.Recover("reset", recHooks(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	want := applyReset(append(append(append([]op{}, pre...), op{Kind: opReset}), post...))
	if !reflect.DeepEqual(applyReset(got), want) {
		t.Fatalf("post-reset recovery mismatch: got %d ops, want %d", len(applyReset(got)), len(want))
	}
	// The snapshot must actually have dropped pre-reset history: the total
	// recovered record count is at most reset marker + post ops + tail.
	if len(got) > len(post)+1+len(pre)/2 {
		t.Fatalf("compaction kept pre-reset history: %d recovered ops", len(got))
	}
}

func TestTornTailIsTruncatedFrameAligned(t *testing.T) {
	s := testStore(t, Options{Fsync: FsyncNever, SegmentBytes: 1 << 20})
	j, err := s.Create(Meta{ID: "torn", Items: 30})
	if err != nil {
		t.Fatal(err)
	}
	full := journalSealed(t, j, 60, 30, 4, 3)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seg := segPath(j.Dir(), 1)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if n := countFrames(raw); n < 15 {
		t.Fatalf("segment holds %d frames, want at least 15 to cut through", n)
	}

	// Frame boundaries = prefixes that recovery can yield. Compute them by
	// scanning with no hooks at every truncation point.
	var cuts []int64
	for c := int64(0); c < int64(len(raw)); c += 3 {
		cuts = append(cuts, c)
	}
	cuts = append(cuts, int64(len(raw)))
	prevVotes := -1
	for _, cut := range cuts {
		dir := t.TempDir()
		s2, err := OpenStore(dir, Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(filepath.Join(dir, "torn"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "torn", "meta.json"), mustMeta(t, "torn", 30), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "torn", filepath.Base(seg)), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var got []op
		j2, err := s2.Recover("torn", recHooks(&got))
		if err != nil {
			t.Fatalf("cut=%d: recover: %v", cut, err)
		}
		j2.Close()
		// Recovered ops must be a prefix of the full stream.
		if len(got) > 0 && !reflect.DeepEqual(got, full[:len(got)]) {
			t.Fatalf("cut=%d: recovered ops are not a prefix", cut)
		}
		// Monotonic: more surviving bytes never recover less.
		if len(got) < prevVotes {
			t.Fatalf("cut=%d: recovered %d ops, previously %d", cut, len(got), prevVotes)
		}
		prevVotes = len(got)
	}
	if prevVotes != len(full) {
		t.Fatalf("full file recovered %d ops, want %d", prevVotes, len(full))
	}
}

func TestCorruptTailFrameIsDropped(t *testing.T) {
	s := testStore(t, Options{Fsync: FsyncNever})
	j, err := s.Create(Meta{ID: "corrupt", Items: 30})
	if err != nil {
		t.Fatal(err)
	}
	full := journalSealed(t, j, 40, 30, 5, 3)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seg := segPath(j.Dir(), 1)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if n := countFrames(raw); n < 10 {
		t.Fatalf("segment holds %d frames, want at least 10", n)
	}
	raw[len(raw)-1] ^= 0xff // flip a byte inside the last frame
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var got []op
	j2, err := s.Recover("corrupt", recHooks(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	// Only the last frame is lost: the frames before it come back.
	if len(got) == 0 || len(got) >= len(full) || !reflect.DeepEqual(got, full[:len(got)]) {
		t.Fatalf("corrupt tail: recovered %d ops of %d, want a non-empty proper prefix", len(got), len(full))
	}
}

func TestRecoverHeaderlessFinalSegment(t *testing.T) {
	s := testStore(t, Options{Fsync: FsyncNever})
	j, err := s.Create(Meta{ID: "hdr", Items: 10})
	if err != nil {
		t.Fatal(err)
	}
	full := journalN(t, j, 10, 10, 6)
	j.Close()
	// Simulate a crash during rotation: a second segment exists but its
	// header never hit the disk.
	if err := os.WriteFile(segPath(j.Dir(), 2), []byte{'D', 'Q'}, 0o644); err != nil {
		t.Fatal(err)
	}
	var got []op
	j2, err := s.Recover("hdr", recHooks(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !reflect.DeepEqual(got, full) {
		t.Fatalf("headerless tail segment: got %d ops, want %d", len(got), len(full))
	}
}

// TestRecoverRefusesUnknownSegmentHeader: a final segment whose header is
// neither segMagic nor what a crash while writing it leaves (a prefix of it,
// or zeros) belongs to some other format or version. Recovery must fail,
// name the file and leave it byte for byte, not wipe it as a torn tail.
func TestRecoverRefusesUnknownSegmentHeader(t *testing.T) {
	s := testStore(t, Options{Fsync: FsyncNever})
	j, err := s.Create(Meta{ID: "v2", Items: 10})
	if err != nil {
		t.Fatal(err)
	}
	journalN(t, j, 10, 10, 6)
	j.Close()
	seg := segPath(j.Dir(), 1)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[4] = 2 // "DQMW\x02", frames intact
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = s.Recover("v2", Hooks{})
	if err == nil || !strings.Contains(err.Error(), filepath.Base(seg)) {
		t.Fatalf("recover over a DQMW\\x02 segment: err = %v, want an error naming %s", err, filepath.Base(seg))
	}
	if after, rerr := os.ReadFile(seg); rerr != nil || !bytes.Equal(after, raw) {
		t.Fatalf("segment changed by a failed recovery: %d bytes before, %d after (err %v)", len(raw), len(after), rerr)
	}

	// A zero-filled header is what a crash at segment creation can leave:
	// still a torn tail, recreated empty.
	if err := os.WriteFile(segPath(j.Dir(), 2), make([]byte, 7), 0o644); err != nil {
		t.Fatal(err)
	}
	raw[4] = 1
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := s.Recover("v2", Hooks{})
	if err != nil {
		t.Fatalf("zero-filled final segment header: %v", err)
	}
	j2.Close()
}

// TestRecoverKeepsUnreadableSnapshot: when the only snapshot of a compacted
// journal fails its checksum, recovery cannot complete, and it must say which
// snapshot it could not read and leave that file exactly as it found it: it
// is the only copy of the history it covers.
func TestRecoverKeepsUnreadableSnapshot(t *testing.T) {
	s := testStore(t, Options{Fsync: FsyncNever, SegmentBytes: 256, CompactAfter: 512})
	j, err := s.Create(Meta{ID: "snap", Items: 50})
	if err != nil {
		t.Fatal(err)
	}
	journalN(t, j, 400, 50, 1)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _, err := listFiles(j.Dir())
	if err != nil || len(snaps) != 1 {
		t.Fatalf("want exactly one snapshot, got %v (err %v)", snaps, err)
	}
	path := snapPath(j.Dir(), snaps[0])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = s.Recover("snap", Hooks{})
	if err == nil || !strings.Contains(err.Error(), filepath.Base(path)) {
		t.Fatalf("recover with a corrupt only snapshot: err = %v, want an error naming %s", err, filepath.Base(path))
	}
	if after, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(after, raw) {
		t.Fatalf("unreadable snapshot not left as it was (err %v)", rerr)
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncBatch, FsyncNever} {
		t.Run(p.String(), func(t *testing.T) {
			s := testStore(t, Options{Fsync: p, BatchInterval: time.Millisecond})
			j, err := s.Create(Meta{ID: "fs", Items: 10})
			if err != nil {
				t.Fatal(err)
			}
			want := journalN(t, j, 20, 10, 7)
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			var got []op
			j2, err := s.Recover("fs", recHooks(&got))
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("policy %v: recovery mismatch", p)
			}
		})
	}
}

func mustMeta(t *testing.T, id string, items int) []byte {
	t.Helper()
	return []byte(fmt.Sprintf(`{"version":1,"id":%q,"items":%d,"created_at":"2026-01-01T00:00:00Z"}`, id, items))
}

// TestAbortedCreateDirIsReclaimed: a crash between Mkdir and writeMeta leaves
// a session directory without meta.json. Such debris must not be listed, must
// not block a fresh Create of the same id, must be removable via Delete, and
// OpenStore must sweep it on the next boot.
func TestAbortedCreateDirIsReclaimed(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "torn"), 0o755); err != nil {
		t.Fatal(err)
	}
	if ids, err := s.IDs(); err != nil || len(ids) != 0 {
		t.Fatalf("IDs() = (%v, %v), want empty: orphan dir listed", ids, err)
	}
	if s.Exists("torn") {
		t.Fatal("Exists reports an orphan dir as a session")
	}
	// Create reclaims the id instead of failing with "already exists".
	j, err := s.Create(Meta{ID: "torn", Items: 1})
	if err != nil {
		t.Fatalf("create over aborted dir: %v", err)
	}
	j.Close()

	// A second orphan (with a stray temp file, as an interrupted writeMeta
	// leaves behind) is swept by the next OpenStore.
	if err := os.Mkdir(filepath.Join(dir, "torn2"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "torn2", "meta.json.tmp"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "torn2")); !os.IsNotExist(err) {
		t.Fatalf("orphan dir survived OpenStore (stat err %v)", err)
	}
	if ids, err := s2.IDs(); err != nil || len(ids) != 1 || ids[0] != "torn" {
		t.Fatalf("IDs() after sweep = (%v, %v), want [torn]", ids, err)
	}

	// Delete removes an orphan dir even though Exists is false for it.
	if err := os.Mkdir(filepath.Join(dir, "torn3"), 0o755); err != nil {
		t.Fatal(err)
	}
	if removed, err := s2.Delete("torn3"); err != nil || !removed {
		t.Fatalf("Delete(orphan) = (%v, %v), want (true, nil)", removed, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "torn3")); !os.IsNotExist(err) {
		t.Fatal("orphan dir survived Delete")
	}
}

// TestStoreIDsByMTimeOrderingForRecovery: the mtime listing boot recovery
// budgets from must come back newest-first, with ties broken by id so the
// order is deterministic.
func TestStoreIDsByMTimeOrderingForRecovery(t *testing.T) {
	s := testStore(t, Options{Fsync: FsyncNever})
	for _, id := range []string{"alpha", "beta", "gamma", "delta"} {
		j, err := s.Create(Meta{ID: id, Items: 10, CreatedAt: time.Now()})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	base := time.Now().Add(-48 * time.Hour)
	stamp := map[string]time.Time{
		"alpha": base.Add(2 * time.Hour),
		"beta":  base, // tied with delta: id order breaks the tie
		"gamma": base.Add(3 * time.Hour),
		"delta": base,
	}
	for id, ts := range stamp {
		dir := filepath.Join(s.Dir(), id)
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if err := os.Chtimes(filepath.Join(dir, e.Name()), ts, ts); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, err := s.IDsByMTime()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"gamma", "alpha", "beta", "delta"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("IDsByMTime() = %v, want %v", got, want)
	}
}
