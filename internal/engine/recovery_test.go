package engine

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dqm/internal/estimator"
	"dqm/internal/votes"
	"dqm/internal/wal"
	"dqm/internal/window"
)

// walOp is one logical engine mutation: one batch staged into the journal.
type walOp struct {
	batch []votes.Vote
	end   bool
	reset bool
}

// genOps builds a deterministic mutation stream with occasional resets.
func genOps(seed int64, frames, n int) []walOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]walOp, 0, frames)
	for i := 0; i < frames; i++ {
		if rng.Intn(40) == 0 {
			ops = append(ops, walOp{reset: true})
			continue
		}
		batch := make([]votes.Vote, 1+rng.Intn(6))
		for k := range batch {
			label := votes.Clean
			if rng.Intn(2) == 0 {
				label = votes.Dirty
			}
			batch[k] = votes.Vote{Item: rng.Intn(n), Worker: rng.Intn(7), Label: label}
		}
		ops = append(ops, walOp{batch: batch, end: rng.Intn(3) != 0})
	}
	return ops
}

// applyOps replays ops[0:k] into a session.
func applyOps(t *testing.T, s *Session, ops []walOp) {
	t.Helper()
	for _, o := range ops {
		if o.reset {
			if err := s.Reset(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := s.Append(o.batch, o.end); err != nil {
			t.Fatal(err)
		}
	}
}

// applyOpsSealed is applyOps that also seals the journal's open frame after
// about every other op, through Sync or a checkpoint, both drawn from an
// rng seeded with seed: a segment written under FsyncNever then holds many
// frames of a few batches each for a crash test to cut through.
func applyOpsSealed(t *testing.T, s *Session, ops []walOp, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for _, o := range ops {
		applyOps(t, s, []walOp{o})
		if rng.Intn(2) == 0 {
			continue
		}
		seal := s.journal.Sync
		if rng.Intn(2) == 0 {
			seal = s.checkpointJournal
		}
		if err := seal(); err != nil {
			t.Fatal(err)
		}
	}
}

// sealUntilFrames applies ops from more, each sealed into a frame of its own,
// until the active segment of s in dataDir holds at least minFrames frames,
// and returns ops with them appended. A crash test then has minFrames frames
// to cut through, whatever size the journal's records take.
func sealUntilFrames(t *testing.T, s *Session, dataDir string, ops, more []walOp, minFrames int) []walOp {
	t.Helper()
	for _, o := range more {
		if f, _ := countFrames(t, activeSegment(t, dataDir, s.id)); f >= minFrames {
			return ops
		}
		applyOps(t, s, []walOp{o})
		if err := s.journal.Sync(); err != nil {
			t.Fatal(err)
		}
		ops = append(ops, o)
	}
	t.Fatalf("active segment holds fewer than %d frames after %d more ops", minFrames, len(more))
	return nil
}

// countFrames counts the frames of a segment file up to the first one that is
// torn or fails its CRC32C, and reports whether they end the file.
func countFrames(t *testing.T, path string) (frames int, clean bool) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := 5 // past the "DQMW\x01" header
	for off < len(raw) {
		size, k := binary.Uvarint(raw[off:])
		if k <= 0 || off+k+4+int(size) > len(raw) {
			break
		}
		payload := raw[off+k+4 : off+k+4+int(size)]
		if crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)) != binary.LittleEndian.Uint32(raw[off+k:]) {
			break
		}
		off += k + 4 + int(size)
		frames++
	}
	return frames, off == len(raw)
}

func durableConfig() Config {
	return Config{WAL: wal.Options{Fsync: wal.FsyncNever, SegmentBytes: 512, CompactAfter: 1024}}
}

func sessionCfg() SessionConfig {
	return SessionConfig{Suite: estimator.SuiteConfig{
		Switch: estimator.SwitchConfig{TrendWindow: 4},
	}}
}

// TestDurableRoundTripBitIdentical is the acceptance-criteria core: close and
// reopen a durable engine (forcing rotation and compaction on the way) and
// require estimates bit-identical to both the live session and an
// uninterrupted in-memory run.
func TestDurableRoundTripBitIdentical(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, durableConfig())
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	s, err := e.Create("round-trip", n, sessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	ops := genOps(11, 300, n)
	applyOps(t, s, ops)
	wantEst := s.Estimates()
	wantVotes, wantTasks, wantWorkers := s.TotalVotes(), s.Tasks(), s.NumWorkers()
	wantCreated := s.CreatedAt()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Uninterrupted in-memory reference.
	ref := NewSession("", n, sessionCfg())
	applyOps(t, ref, ops)
	if !reflect.DeepEqual(ref.Estimates(), wantEst) {
		t.Fatal("in-memory reference diverges from durable session (journaling changed semantics)")
	}

	e2, err := Open(dir, durableConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	s2, ok := e2.Get("round-trip")
	if !ok {
		t.Fatal("session not recovered at boot")
	}
	if got := s2.Estimates(); !reflect.DeepEqual(got, wantEst) {
		t.Fatalf("recovered estimates differ:\n got %+v\nwant %+v", got, wantEst)
	}
	if s2.TotalVotes() != wantVotes || s2.Tasks() != wantTasks || s2.NumWorkers() != wantWorkers {
		t.Fatalf("recovered counters: votes %d/%d tasks %d/%d workers %d/%d",
			s2.TotalVotes(), wantVotes, s2.Tasks(), wantTasks, s2.NumWorkers(), wantWorkers)
	}
	if wantWorkers == 0 {
		t.Fatal("no workers since the last reset; the worker check is vacuous")
	}
	if !s2.CreatedAt().Equal(wantCreated) {
		t.Fatalf("created-at not restored: %v vs %v", s2.CreatedAt(), wantCreated)
	}
	if s2.journal == nil {
		t.Fatal("recovered session lost its journal")
	}

	// The recovered session keeps ingesting durably.
	more := genOps(12, 40, n)
	applyOps(t, s2, more)
	finalEst := s2.Estimates()
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	e3, err := Open(dir, durableConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	s3, _ := e3.Get("round-trip")
	if got := s3.Estimates(); !reflect.DeepEqual(got, finalEst) {
		t.Fatal("second recovery diverges")
	}
}

// copyDir clones a data directory for destructive recovery experiments.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// activeSegment returns the path of the highest-seq segment in a session dir.
func activeSegment(t *testing.T, dataDir, id string) string {
	t.Helper()
	sessDir := filepath.Join(dataDir, id)
	ents, err := os.ReadDir(sessDir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".seg") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	max := segs[0]
	for _, s := range segs[1:] {
		if s > max {
			max = s
		}
	}
	return filepath.Join(sessDir, max)
}

// prefixStates precomputes (votes, tasks) -> estimates for every frame prefix
// of ops, replayed cleanly in memory.
type prefixState struct {
	votes int64
	tasks int64
	est   estimator.Estimates
}

func prefixStates(t *testing.T, n int, ops []walOp) []prefixState {
	t.Helper()
	s := NewSession("", n, sessionCfg())
	out := make([]prefixState, 0, len(ops)+1)
	out = append(out, prefixState{0, 0, s.Estimates()})
	for _, o := range ops {
		if o.reset {
			s.Reset()
		} else if err := s.Append(o.batch, o.end); err != nil {
			t.Fatal(err)
		}
		out = append(out, prefixState{s.TotalVotes(), s.Tasks(), s.Estimates()})
	}
	return out
}

// TestCrashRecoveryMatchesCleanReplayPrefix is the kill-at-arbitrary-offset
// property test: for every truncation point of the active segment (torn
// tails included), recovery must succeed and yield estimates bit-identical
// to a clean in-memory replay of some frame prefix of the mutation stream —
// never a torn half-batch, never an invented state.
func TestCrashRecoveryMatchesCleanReplayPrefix(t *testing.T) {
	const n = 30
	dir := t.TempDir()
	e, err := Open(dir, durableConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Create("crash", n, sessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	ops := genOps(21, 160, n)
	applyOpsSealed(t, s, ops, 22)
	ops = sealUntilFrames(t, s, dir, ops, genOps(23, 200, n), 15)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	prefixes := prefixStates(t, n, ops)
	matchPrefix := func(t *testing.T, cut int64, got prefixState) {
		t.Helper()
		for _, p := range prefixes {
			if p.votes == got.votes && p.tasks == got.tasks {
				if reflect.DeepEqual(p.est, got.est) {
					return
				}
			}
		}
		t.Fatalf("cut=%d: recovered state (votes=%d tasks=%d) matches no clean frame prefix", cut, got.votes, got.tasks)
	}

	seg := activeSegment(t, dir, "crash")
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	var prevVotes int64 = -1
	step := int64(7)
	if testing.Short() {
		step = 61
	}
	var cuts []int64
	for c := int64(0); c < int64(len(raw)); c += step {
		cuts = append(cuts, c)
	}
	cuts = append(cuts, int64(len(raw)))
	for _, cut := range cuts {
		clone := t.TempDir()
		copyDir(t, dir, clone)
		segClone := activeSegment(t, clone, "crash")
		if err := os.Truncate(segClone, cut); err != nil {
			t.Fatal(err)
		}
		e2, err := Open(clone, durableConfig())
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		s2, ok := e2.Get("crash")
		if !ok {
			t.Fatalf("cut=%d: session missing after recovery", cut)
		}
		got := prefixState{s2.TotalVotes(), s2.Tasks(), s2.Estimates()}
		matchPrefix(t, cut, got)
		if got.votes < prevVotes && cut > 0 {
			// Not strictly monotonic across resets (votes drop at a reset),
			// but a longer surviving file can never *lose* frames; votes can
			// only shrink if a reset frame came back in. Detect the absurd
			// case: fewer votes with no reset in the stream.
			hasReset := false
			for _, o := range ops {
				if o.reset {
					hasReset = true
					break
				}
			}
			if !hasReset {
				t.Fatalf("cut=%d: recovered votes %d < previous %d without resets", cut, got.votes, prevVotes)
			}
		}
		prevVotes = got.votes
		e2.Close()
	}
	// The untruncated copy must recover the complete stream.
	last := prefixes[len(prefixes)-1]
	if prevVotes != last.votes {
		t.Fatalf("full-file recovery got %d votes, want %d", prevVotes, last.votes)
	}
}

// TestCrashRecoveryCorruptTail flips bytes in the active segment's tail; the
// frames before the corruption must survive, the rest must be dropped, and
// the result must still match a clean prefix.
func TestCrashRecoveryCorruptTail(t *testing.T) {
	const n = 25
	dir := t.TempDir()
	e, err := Open(dir, durableConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Create("corrupt", n, sessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	ops := genOps(31, 80, n)
	applyOpsSealed(t, s, ops, 32)
	ops = sealUntilFrames(t, s, dir, ops, genOps(33, 200, n), 15)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	prefixes := prefixStates(t, n, ops)

	seg := activeSegment(t, dir, "corrupt")
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for off := len(raw) - 1; off > len(raw)-40 && off > 5; off -= 7 {
		clone := t.TempDir()
		copyDir(t, dir, clone)
		segClone := activeSegment(t, clone, "corrupt")
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x5a
		if err := os.WriteFile(segClone, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		e2, err := Open(clone, durableConfig())
		if err != nil {
			t.Fatalf("off=%d: open: %v", off, err)
		}
		s2, ok := e2.Get("corrupt")
		if !ok {
			t.Fatalf("off=%d: session missing", off)
		}
		got := prefixState{s2.TotalVotes(), s2.Tasks(), s2.Estimates()}
		found := false
		for _, p := range prefixes {
			if p.votes == got.votes && p.tasks == got.tasks && reflect.DeepEqual(p.est, got.est) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("off=%d: corrupt-tail recovery matches no clean prefix", off)
		}
		e2.Close()
	}
}

// TestEvictedDurableSessionRevives exercises the durable-LRU story: eviction
// closes the journal but keeps the files; GetOrLoad brings the session back
// with identical state.
func TestEvictedDurableSessionRevives(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig()
	cfg.MaxSessions = 1
	evicted := make([]string, 0, 2)
	cfg.OnEvict = func(id string) { evicted = append(evicted, id) }
	e, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const n = 20
	a, err := e.Create("a", n, sessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	ops := genOps(41, 50, n)
	applyOps(t, a, ops)
	wantEst := a.Estimates()

	if _, err := e.Create("b", n, sessionCfg()); err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0] != "a" {
		t.Fatalf("evictions = %v, want [a]", evicted)
	}
	if _, live := e.Get("a"); live {
		t.Fatal("evicted session still live")
	}
	// The evicted session's journal is closed: durable mutations through the
	// stale handle must fail instead of silently diverging from disk.
	if err := a.Append([]votes.Vote{{Item: 0, Worker: 0, Label: votes.Dirty}}, false); err == nil {
		t.Fatal("append on evicted session's stale handle succeeded")
	}
	// IDs still lists the on-disk session.
	ids := e.IDs()
	if len(ids) != 2 {
		t.Fatalf("IDs = %v, want both sessions", ids)
	}
	// Revive.
	a2, ok := e.GetOrLoad("a")
	if !ok {
		t.Fatal("GetOrLoad failed to revive evicted session")
	}
	if got := a2.Estimates(); !reflect.DeepEqual(got, wantEst) {
		t.Fatal("revived session state differs")
	}
	if e.Len() != 1 {
		t.Fatalf("Len = %d after revival under MaxSessions=1", e.Len())
	}
}

// TestDurableDeleteRemovesFiles: Delete purges disk state, so the id becomes
// creatable again; Create refuses ids that still have files.
func TestDurableDeleteRemovesFiles(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig()
	cfg.MaxSessions = 1
	e, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Create("x", 5, SessionConfig{}); err != nil {
		t.Fatal(err)
	}
	// Evict "x" by creating "y"; its files remain, so re-creating "x" fails.
	if _, err := e.Create("y", 5, SessionConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Create("x", 5, SessionConfig{}); err == nil || !strings.Contains(err.Error(), "on disk") {
		t.Fatalf("create over on-disk state: err = %v, want 'on disk' error", err)
	}
	if !e.Delete("x") {
		t.Fatal("delete of evicted on-disk session reported false")
	}
	if _, err := e.Create("x", 5, SessionConfig{}); err != nil {
		t.Fatalf("create after delete: %v", err)
	}
}

// TestRecoveryRejectsUnregisteredEstimator: a journaled session whose config
// names an estimator this binary does not register must fail recovery with a
// clear error, not panic.
func TestRecoveryRejectsUnregisteredEstimator(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, durableConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Create("ghost", 5, SessionConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the stored config to name a ghost estimator.
	metaPath := filepath.Join(dir, "ghost", "meta.json")
	b, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	var meta map[string]json.RawMessage
	if err := json.Unmarshal(b, &meta); err != nil {
		t.Fatal(err)
	}
	meta["config"] = json.RawMessage(`{"Suite":{"Estimators":["no-such-estimator"]}}`)
	mut, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(metaPath, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, durableConfig()); err == nil {
		t.Fatal("open succeeded with unregistered estimator in stored config")
	}
}

// TestBackgroundFlusherBoundsIdleLoss: under FsyncBatch an acknowledged vote
// must reach the OS within ~the batch interval even when the session goes
// idle, without waiting for the next append or a clean Close — that is the
// documented loss bound.
func TestBackgroundFlusherBoundsIdleLoss(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{WAL: wal.Options{Fsync: wal.FsyncBatch, BatchInterval: 10 * time.Millisecond}}
	e, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s, err := e.Create("idle", 10, SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]votes.Vote{{Item: 3, Worker: 1, Label: votes.Dirty}}, true); err != nil {
		t.Fatal(err)
	}
	// Simulate a kill -9 while idle: copy the live files without Close and
	// recover from the copy. Poll past a few flush intervals.
	deadline := time.Now().Add(2 * time.Second)
	for {
		clone := t.TempDir()
		copyDir(t, dir, clone)
		e2, err := Open(clone, Config{WAL: cfg.WAL})
		if err == nil {
			s2, ok := e2.Get("idle")
			if ok && s2.TotalVotes() == 1 && s2.Tasks() == 1 {
				e2.Close()
				return
			}
			e2.Close()
		}
		if time.Now().After(deadline) {
			t.Fatal("acknowledged vote never reached the OS from an idle session")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEngineCloseIdempotent: a second Close (defer + explicit shutdown path)
// must be a harmless no-op, not a spurious journal-closed error.
func TestEngineCloseIdempotent(t *testing.T) {
	e, err := Open(t.TempDir(), durableConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Create("x", 5, SessionConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestConcurrentLoadCreateDeleteNoDoubleJournal hammers the disk/memory
// transition paths for one id; the invariant is no panic, no corrupted
// recovery, and a consistent final state.
func TestConcurrentLoadCreateDeleteNoDoubleJournal(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig()
	cfg.MaxSessions = 1
	e, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				switch (g + i) % 4 {
				case 0:
					if s, err := e.Create("contended", 10, SessionConfig{}); err == nil {
						_ = s.Append([]votes.Vote{{Item: 1, Worker: g, Label: votes.Dirty}}, true)
					}
				case 1:
					if s, ok := e.GetOrLoad("contended"); ok {
						_ = s.Append([]votes.Vote{{Item: 2, Worker: g, Label: votes.Clean}}, false)
					}
				case 2:
					e.Delete("contended")
				case 3:
					// Churn a second id to trigger MaxSessions evictions.
					if _, err := e.Create("churn", 10, SessionConfig{}); err == nil {
						e.Delete("churn")
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Whatever survived must recover cleanly.
	if _, err := Open(dir, durableConfig()); err != nil {
		t.Fatalf("post-churn recovery failed: %v", err)
	}
}

// TestOpenSkipsAbortedCreateDir: a session directory without meta.json
// (crash between Mkdir and the meta write) must not fail recovery for the
// whole data dir, and its id must be reusable.
func TestOpenSkipsAbortedCreateDir(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, durableConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Create("kept", 10, sessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]votes.Vote{{Item: 1, Worker: 0, Label: votes.Dirty}}, true); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the torn create.
	if err := os.Mkdir(filepath.Join(dir, "torn"), 0o755); err != nil {
		t.Fatal(err)
	}

	e2, err := Open(dir, durableConfig())
	if err != nil {
		t.Fatalf("Open with orphan session dir: %v", err)
	}
	defer e2.Close()
	if got := e2.IDs(); len(got) != 1 || got[0] != "kept" {
		t.Fatalf("IDs() = %v, want [kept]", got)
	}
	if _, ok := e2.Get("kept"); !ok {
		t.Fatal("journaled session not recovered")
	}
	// The orphan's id is free again.
	if _, err := e2.Create("torn", 5, sessionCfg()); err != nil {
		t.Fatalf("create over swept orphan dir: %v", err)
	}
}

// TestDeleteRemovesAbortedCreateDir: Delete must remove a meta-less session
// directory even though Exists/Load do not see it — otherwise the id is stuck
// (unlistable, unloadable, yet blocking Create) until manual cleanup.
func TestDeleteRemovesAbortedCreateDir(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, durableConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := os.Mkdir(filepath.Join(dir, "torn"), 0o755); err != nil {
		t.Fatal(err)
	}
	if !e.Delete("torn") {
		t.Fatal("Delete of orphan dir reported false")
	}
	if _, err := os.Stat(filepath.Join(dir, "torn")); !os.IsNotExist(err) {
		t.Fatal("orphan dir survived Delete")
	}
}

// TestOnEvictMayReenterEngine: OnEvict fires with no engine lock held, so a
// callback that calls back into the engine (here: Delete, which takes the
// durable engine's loadMu) must not deadlock. Before the fix, durable Create
// and Load invoked the callback while holding loadMu.
func TestOnEvictMayReenterEngine(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig()
	cfg.MaxSessions = 1
	var e *Engine
	var evicted []string
	cfg.OnEvict = func(id string) {
		evicted = append(evicted, id)
		// Harmless, but takes loadMu on a durable engine — deadlocked when
		// the callback fired under it.
		e.Delete(id + "-ghost")
	}
	e, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Create("a", 5, sessionCfg()); err != nil {
		t.Fatal(err)
	}
	// Create path: evicts "a" under loadMu; the callback runs after release.
	if _, err := e.Create("b", 5, sessionCfg()); err != nil {
		t.Fatal(err)
	}
	// Load path: reviving "a" evicts "b" under loadMu.
	if _, err := e.Load("a"); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b"}
	if !reflect.DeepEqual(evicted, want) {
		t.Fatalf("evicted = %v, want %v", evicted, want)
	}
	// Eviction kept both sessions' files; only memory was released.
	if !e.store.Exists("a") || !e.store.Exists("b") {
		t.Fatal("eviction removed journal files")
	}
}

// TestRepeatedSwitchSessionRecovers creates a durable windowed session that
// selects SWITCH twice, as a create request may, next to an in-memory session
// that selects it once. Every estimate, every window view and the
// per-item majority must be equal after the stream, and again after the
// durable session is recovered from its journal, whose meta keeps the
// repeated selection. EstimatorNames must keep the repetition.
func TestRepeatedSwitchSessionRecovers(t *testing.T) {
	const n = 8
	config := func(names ...string) SessionConfig {
		cfg := sessionCfg()
		cfg.Suite.Estimators = names
		cfg.Window = &window.Config{Size: 6, Stride: 3, DecayAlpha: 0.5}
		return cfg
	}
	names := []string{estimator.NameVoting, estimator.NameSwitch, estimator.NameSwitch}
	dir := t.TempDir()
	e, err := Open(dir, durableConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Create("twice", n, config(names...))
	if err != nil {
		t.Fatal(err)
	}
	ref := NewSession("once", n, config(estimator.NameVoting, estimator.NameSwitch))
	// About 3.5 votes a frame over 8 items, and one reset halfway: about
	// 570 votes an item on each side of it, so the rows widen to 16 bits.
	var ops []walOp
	for _, o := range genOps(255, 3000, n) {
		if !o.reset {
			ops = append(ops, o)
		}
	}
	ops = slices.Insert(ops, len(ops)/2, walOp{reset: true})
	applyOps(t, s, ops)
	applyOps(t, ref, ops)
	same := func(when string, s *Session) {
		t.Helper()
		if got := s.EstimatorNames(); !slices.Equal(got, names) {
			t.Fatalf("%s: EstimatorNames = %v, want %v", when, got, names)
		}
		if got, want := s.Estimates(), ref.Estimates(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: estimates %+v, want %+v", when, got, want)
		}
		for _, kind := range []window.Kind{window.KindCurrent, window.KindLast, window.KindDecayed} {
			got, gerr := s.WindowEstimates(kind)
			want, werr := ref.WindowEstimates(kind)
			if !reflect.DeepEqual(got, want) || (gerr == nil) != (werr == nil) {
				t.Fatalf("%s: %v window %+v (%v), want %+v (%v)", when, kind, got, gerr, want, werr)
			}
		}
		for i := 0; i < n; i++ {
			if s.MajorityDirty(i) != ref.MajorityDirty(i) {
				t.Fatalf("%s: item %d majority differs", when, i)
			}
		}
	}
	same("live", s)
	if s.suite.Matrix.Rows().Bits() != 16 {
		t.Fatalf("%d-bit rows, want 16: the stream does not cross votes.MaxVotes8", s.suite.Matrix.Rows().Bits())
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(dir, durableConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	s2, ok := e2.Get("twice")
	if !ok {
		t.Fatal("session not recovered at boot")
	}
	same("recovered", s2)
}

// TestNibbleRowsWidenBeforeRestart: a durable windowed session whose
// all-time suite passes votes.MaxVotes4 votes on its items, but never
// votes.MaxVotes8, widens its rows from 4 to 8 bits before a restart. The
// recovered session must come back 8 bits wide, with the estimates, every
// window view, the per-item majority and the vote total of an in-memory
// session fed the same stream.
func TestNibbleRowsWidenBeforeRestart(t *testing.T) {
	const n = 8
	cfg := SessionConfig{Window: &window.Config{Size: 6, Stride: 3, DecayAlpha: 0.5}}
	dir := t.TempDir()
	e, err := Open(dir, durableConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Create("nibble", n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewSession("ref", n, cfg)
	// About 3.5 votes a frame over 8 items and no reset: about 130 votes an
	// item.
	var ops []walOp
	for _, o := range genOps(15, 300, n) {
		if !o.reset {
			ops = append(ops, o)
		}
	}
	applyOps(t, s, ops)
	applyOps(t, ref, ops)
	if msg := diffWideSessions(s, ref); msg != "" {
		t.Fatalf("live: %s", msg)
	}
	if bits := s.suite.Matrix.Rows().Bits(); bits != 8 {
		t.Fatalf("%d-bit rows before the restart, want 8", bits)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(dir, durableConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	s2, ok := e2.Get("nibble")
	if !ok {
		t.Fatal("session not recovered at boot")
	}
	if bits := s2.suite.Matrix.Rows().Bits(); bits != 8 {
		t.Fatalf("%d-bit rows after the restart, want 8", bits)
	}
	if msg := diffWideSessions(s2, ref); msg != "" {
		t.Fatalf("recovered: %s", msg)
	}
}

// TestVersionNeverFallsAcrossRestart: compaction drops everything before the
// last reset, so a version counted over the replay alone fell below the one
// served before a restart (1401 to 800 in the first shape below, 4501 to
// 3000 in the second), and one ETag or watch cursor could name two states.
// The recovered version must be at least the one served before every reopen:
// after a compacted reset, after a second reopen, after empty appends (which
// journal nothing), and after a reset on a recovered session. A policy
// attached in between must survive the reset's rewrite of meta.json, and the
// reset floor the policy's.
func TestVersionNeverFallsAcrossRestart(t *testing.T) {
	for _, shape := range []struct{ boundaries, tasks int }{{1000, 400}, {3000, 1500}} {
		t.Run(fmt.Sprintf("%d-boundaries-%d-tasks", shape.boundaries, shape.tasks), func(t *testing.T) {
			dir, cfg := t.TempDir(), Config{WAL: wal.Options{SegmentBytes: 256, CompactAfter: 1}}
			e, err := Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { e.Close() }) // the engine open last
			s, err := e.Create("s", 10, SessionConfig{})
			if err != nil {
				t.Fatal(err)
			}
			tasks := func(k int) {
				t.Helper()
				for i := 0; i < k; i++ {
					if err := s.Append([]votes.Vote{{Item: i % 10, Worker: i % 3, Label: votes.Dirty}}, true); err != nil {
						t.Fatal(err)
					}
				}
			}
			reopen := func(when string) {
				t.Helper()
				before, est := s.Version(), s.Estimates()
				if err := e.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				if e, err = Open(dir, cfg); err != nil {
					t.Fatal(err)
				}
				var ok bool
				if s, ok = e.Get("s"); !ok {
					t.Fatalf("%s: session not recovered", when)
				}
				if after := s.Version(); after < before {
					t.Fatalf("%s: version %d before the reopen, %d after", when, before, after)
				}
				if got := s.Estimates(); got != est {
					t.Fatalf("%s: estimates %+v after the reopen, %+v before", when, got, est)
				}
			}
			for i := 0; i < shape.boundaries; i++ {
				if err := s.EndTask(); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Reset(); err != nil {
				t.Fatal(err)
			}
			tasks(shape.tasks)
			reopen("compacted reset")
			reopen("second reopen")
			for i := 0; i < 10; i++ {
				if err := s.Append(nil, false); err != nil {
					t.Fatal(err)
				}
			}
			reopen("empty appends")

			policy := []byte(`{"rules":[]}`)
			if err := e.SetPolicy("s", policy); err != nil {
				t.Fatal(err)
			}
			tasks(shape.tasks)
			if err := s.Reset(); err != nil {
				t.Fatal(err)
			}
			tasks(10)
			reopen("reset after a reopen")
			if got := s.PolicyJSON(); string(got) != string(policy) {
				t.Fatalf("policy %q after the reset and reopen, want %q", got, policy)
			}
			if err := e.SetPolicy("s", nil); err != nil {
				t.Fatal(err)
			}
			reopen("policy detached")
		})
	}
}
