package engine

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"dqm/internal/estimator"
	"dqm/internal/votes"
	"dqm/internal/wal"
	"dqm/internal/window"
)

func windowedSessionCfg() SessionConfig {
	w := window.Config{Size: 7, Stride: 3, DecayAlpha: 0.5}
	return SessionConfig{
		Suite:  estimator.SuiteConfig{Switch: estimator.SwitchConfig{TrendWindow: 4}},
		Window: &w,
	}
}

// winState captures everything a windowed session can serve: the all-time
// estimate plus all three windowed views (with their availability).
type winState struct {
	votes, tasks         int64
	est                  estimator.Estimates
	cur, last, dec       window.Result
	curOK, lastOK, decOK bool
}

func captureWinState(s *Session) winState {
	w := winState{votes: s.TotalVotes(), tasks: s.Tasks(), est: s.Estimates()}
	var err error
	if w.cur, err = s.WindowEstimates(window.KindCurrent); err == nil {
		w.curOK = true
	}
	if w.last, err = s.WindowEstimates(window.KindLast); err == nil {
		w.lastOK = true
	}
	if w.dec, err = s.WindowEstimates(window.KindDecayed); err == nil {
		w.decOK = true
	}
	return w
}

// winPrefixStates replays every frame prefix of ops cleanly in memory.
func winPrefixStates(t *testing.T, n int, ops []walOp) []winState {
	t.Helper()
	s := NewSession("", n, windowedSessionCfg())
	out := make([]winState, 0, len(ops)+1)
	out = append(out, captureWinState(s))
	for _, o := range ops {
		if o.reset {
			s.Reset()
		} else if err := s.Append(o.batch, o.end); err != nil {
			t.Fatal(err)
		}
		out = append(out, captureWinState(s))
	}
	return out
}

// TestWindowedDurableRoundTripBitIdentical: a windowed session's full state —
// all-time estimate AND every windowed view — must survive close/reopen
// (rotation and compaction included) bit-identically.
func TestWindowedDurableRoundTripBitIdentical(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	s, err := e.Create("win-rt", n, windowedSessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	ops := genOps(61, 300, n)
	// Guarantee a sealed window at the end even if the random stream reset
	// late: a run of task-ending frames longer than the window size.
	for i := 0; i < 12; i++ {
		ops = append(ops, walOp{batch: []votes.Vote{{Item: i % n, Worker: i % 5, Label: votes.Dirty}}, end: true})
	}
	applyOps(t, s, ops)
	want := captureWinState(s)
	if !want.lastOK || !want.decOK {
		t.Fatal("test stream too short: no window ever completed")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// In-memory reference: journaling must not change windowed semantics.
	ref := NewSession("", n, windowedSessionCfg())
	applyOps(t, ref, ops)
	if got := captureWinState(ref); !reflect.DeepEqual(got, want) {
		t.Fatal("in-memory windowed reference diverges from durable session")
	}

	e2, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	s2, ok := e2.Get("win-rt")
	if !ok {
		t.Fatal("windowed session not recovered")
	}
	if got := captureWinState(s2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered windowed state differs:\n got %+v\nwant %+v", got, want)
	}
	// And it keeps ingesting durably with correct window rotation.
	more := genOps(62, 60, n)
	applyOps(t, s2, more)
	final := captureWinState(s2)
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	e3, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	s3, _ := e3.Get("win-rt")
	if got := captureWinState(s3); !reflect.DeepEqual(got, final) {
		t.Fatal("second windowed recovery diverges")
	}
}

// TestWindowedCrashRecoveryMatchesCleanReplayPrefix is the acceptance-criteria
// property test: truncating the journal at arbitrary byte offsets across
// window boundaries must always recover to a clean frame prefix whose
// windowed estimates are bit-identical to an uninterrupted run over that
// prefix — a task boundary can never come back without the window rotation it
// sealed (they share a frame).
func TestWindowedCrashRecoveryMatchesCleanReplayPrefix(t *testing.T) {
	const n = 30
	dir := t.TempDir()
	e, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Create("win-crash", n, windowedSessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	ops := genOps(63, 160, n)
	applyOpsSealed(t, s, ops, 64)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if f, _ := countFrames(t, activeSegment(t, dir, "win-crash")); f < 15 {
		t.Fatalf("active segment holds %d frames, want at least 15 to cut through", f)
	}

	prefixes := winPrefixStates(t, n, ops)
	seg := activeSegment(t, dir, "win-crash")
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
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
		segClone := activeSegment(t, clone, "win-crash")
		if err := os.Truncate(segClone, cut); err != nil {
			t.Fatal(err)
		}
		e2, err := Open(durableConfig(clone))
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		s2, ok := e2.Get("win-crash")
		if !ok {
			t.Fatalf("cut=%d: session missing after recovery", cut)
		}
		got := captureWinState(s2)
		found := false
		for _, p := range prefixes {
			if p.votes == got.votes && p.tasks == got.tasks && reflect.DeepEqual(p, got) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("cut=%d: recovered windowed state (votes=%d tasks=%d) matches no clean frame prefix",
				cut, got.votes, got.tasks)
		}
		e2.Close()
	}
}

// TestRecoveryRejectsMismatchedRotationRecord: a journaled rotation that the
// deterministic replay does not reproduce is corruption and must fail
// recovery loudly, not serve silently wrong windows.
func TestRecoveryRejectsMismatchedRotationRecord(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Create("bad-rot", 20, windowedSessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Two tasks in: the next rotation is far away, so a rotation record here
	// cannot match the replayed window state.
	for i := 0; i < 2; i++ {
		if err := s.Append([]votes.Vote{{Item: i, Worker: 0, Label: votes.Dirty}}, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Append a forged rotation frame through the raw WAL layer.
	store, err := wal.OpenStore(dir, wal.Options{Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	j, err := store.Recover("bad-rot", wal.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(nil, true, 999); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(durableConfig(dir)); err == nil || !strings.Contains(err.Error(), "window rotation") {
		t.Fatalf("recovery with forged rotation record: err = %v, want window-rotation mismatch", err)
	}
}
