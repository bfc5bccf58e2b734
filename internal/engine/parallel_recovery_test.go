package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dqm/internal/estimator"
	"dqm/internal/votelog"
	"dqm/internal/votes"
	"dqm/internal/window"
)

// sessionState is the comparable image of one recovered session.
type sessionState struct {
	votes   int64
	tasks   int64
	version uint64
	est     estimator.Estimates
}

func stateOf(s *Session) sessionState {
	return sessionState{
		votes:   s.TotalVotes(),
		tasks:   s.Tasks(),
		version: s.Version(),
		est:     s.Estimates(),
	}
}

// buildMixedDataDir populates dir with a diverse set of journaled sessions —
// plain vote streams, a windowed session, a columnar-ingest session — closes
// the engine, and tears the final segment of one session. It returns the
// session ids.
func buildMixedDataDir(t *testing.T, dir string) []string {
	t.Helper()
	e, err := Open(dir, durableConfig())
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	var ids []string

	// Plain sessions with distinct deterministic streams (resets included).
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("plain-%d", i)
		s, err := e.Create(id, n, sessionCfg())
		if err != nil {
			t.Fatal(err)
		}
		applyOps(t, s, genOps(int64(100+i), 60+10*i, n))
		ids = append(ids, id)
	}

	// Windowed session: rotations journal opWindow records, which the batched
	// replay must flush around.
	wcfg := sessionCfg()
	wcfg.Window = &window.Config{Size: 3, DecayAlpha: 0.5}
	ws, err := e.Create("windowed", n, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, ws, genOps(200, 80, n))
	ids = append(ids, "windowed")

	// Columnar session: raw DQMV task blocks, journaled from their decoded
	// columns as packed records.
	cs, err := e.Create("columnar", n, sessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	for task := 0; task < 12; task++ {
		var raw []byte
		for v := 0; v < 7; v++ {
			raw = votelog.AppendBinaryVote(raw, int32((task*7+v)%n), int32(v%5), (task+v)%3 == 0)
		}
		if _, err := cs.AppendColumns(raw, true); err != nil {
			t.Fatal(err)
		}
	}
	ids = append(ids, "columnar")

	// A session whose final segment we tear after close.
	ts, err := e.Create("torn-tail", n, sessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, ts, genOps(300, 50, n))
	ids = append(ids, "torn-tail")

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	seg := activeSegment(t, dir, "torn-tail")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < 10 {
		t.Fatal("torn-tail segment too small to tear")
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestRecoveryParallelBitIdentical is the tentpole's determinism property:
// boot recovery at any worker count must produce sessions bit-identical to
// serial recovery — across plain streams, windowed sessions, columnar journal
// records, and a torn final segment.
func TestRecoveryParallelBitIdentical(t *testing.T) {
	src := t.TempDir()
	ids := buildMixedDataDir(t, src)

	recoverWith := func(workers int) map[string]sessionState {
		// Recover a clone: the first open truncates the torn tail in place, so
		// every worker count must start from the same bytes.
		clone := t.TempDir()
		copyDir(t, src, clone)
		e, err := open(clone, durableConfig(), workers)
		if err != nil {
			t.Fatalf("workers=%d: open: %v", workers, err)
		}
		defer e.Close()
		out := make(map[string]sessionState, len(ids))
		for _, id := range ids {
			s, ok := e.Get(id)
			if !ok {
				t.Fatalf("workers=%d: session %q not recovered", workers, id)
			}
			out[id] = stateOf(s)
		}
		return out
	}

	want := recoverWith(1)
	for _, workers := range []int{2, 8, runtime.GOMAXPROCS(0)} {
		got := recoverWith(workers)
		for _, id := range ids {
			if !reflect.DeepEqual(got[id], want[id]) {
				t.Fatalf("workers=%d: session %q diverges from serial recovery:\n got %+v\nwant %+v",
					workers, id, got[id], want[id])
			}
		}
	}
}

// TestRecoveryFirstErrorDeterministic: when several journals are broken, Open
// must report the error of the lowest-index failing id — the one serial
// recovery would hit — at every worker count.
func TestRecoveryFirstErrorDeterministic(t *testing.T) {
	src := t.TempDir()
	e, err := Open(src, durableConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		s, err := e.Create(fmt.Sprintf("s%02d", i), 10, sessionCfg())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Append([]votes.Vote{{Item: i % 10, Worker: 1, Label: votes.Dirty}}, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Break two sessions; recovery order is the sorted id listing, so "s03"
	// is the error serial recovery reports first.
	for _, id := range []string{"s03", "s09"} {
		meta := filepath.Join(src, id, "meta.json")
		if err := os.WriteFile(meta, []byte(`{"id":"`+id+`","items":10,"config":{"Suite":{"Estimators":["no-such-estimator"]}}}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 8, runtime.GOMAXPROCS(0)} {
		clone := t.TempDir()
		copyDir(t, src, clone)
		_, err := open(clone, durableConfig(), workers)
		if err == nil {
			t.Fatalf("workers=%d: open succeeded over broken journals", workers)
		}
		if !strings.Contains(err.Error(), `"s03"`) {
			t.Fatalf("workers=%d: error = %v, want the lowest-index failure (s03)", workers, err)
		}
	}
}

// TestRecoveryLoadSingleflightCoalesces: a burst of concurrent Loads of one
// evicted session must perform exactly one journal replay — the rest coalesce
// on the id's transition lock and find the live session.
func TestRecoveryLoadSingleflightCoalesces(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig()
	cfg.MaxSessions = 1
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
	applyOps(t, a, genOps(51, 40, n))
	want := a.Estimates()
	if _, err := e.Create("b", n, sessionCfg()); err != nil { // evicts "a"
		t.Fatal(err)
	}

	var replays atomic.Int64
	testRecoverStall = func(id string) {
		if id == "a" {
			replays.Add(1)
			// Hold the replay open long enough for every duplicate Load to
			// queue on the id lock instead of racing past the Get fast path.
			time.Sleep(50 * time.Millisecond)
		}
	}
	defer func() { testRecoverStall = nil }()

	const loaders = 8
	var wg sync.WaitGroup
	errs := make([]error, loaders)
	sessions := make([]*Session, loaders)
	for g := 0; g < loaders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sessions[g], errs[g] = e.Load("a")
		}(g)
	}
	wg.Wait()
	for g := 0; g < loaders; g++ {
		if errs[g] != nil {
			t.Fatalf("loader %d: %v", g, errs[g])
		}
		if sessions[g] != sessions[0] {
			t.Fatalf("loader %d got a different session object (duplicate replay)", g)
		}
	}
	if got := replays.Load(); got != 1 {
		t.Fatalf("burst of %d Loads performed %d replays, want exactly 1", loaders, got)
	}
	if got := sessions[0].Estimates(); !reflect.DeepEqual(got, want) {
		t.Fatal("coalesced load recovered divergent state")
	}
}

// TestRecoveryDistinctLoadsDoNotSerialize is the regression test for the old
// engine-global load lock: while one session's cold load is stalled mid-replay,
// a cold load of a DIFFERENT session must complete.
func TestRecoveryDistinctLoadsDoNotSerialize(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig()
	cfg.MaxSessions = 1
	e, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	const n = 15
	for _, id := range []string{"a", "b", "c"} { // each create evicts the last
		s, err := e.Create(id, n, sessionCfg())
		if err != nil {
			t.Fatal(err)
		}
		applyOps(t, s, genOps(61, 20, n))
	}

	aStarted := make(chan struct{})
	releaseA := make(chan struct{})
	testRecoverStall = func(id string) {
		if id == "a" {
			close(aStarted)
			<-releaseA
		}
	}
	defer func() { testRecoverStall = nil }()

	aDone := make(chan error, 1)
	go func() {
		_, err := e.Load("a")
		aDone <- err
	}()
	<-aStarted

	// "a" is replaying and blocked; "b" must load anyway.
	bDone := make(chan error, 1)
	go func() {
		_, err := e.Load("b")
		bDone <- err
	}()
	select {
	case err := <-bDone:
		if err != nil {
			t.Fatalf("load of b: %v", err)
		}
	case <-time.After(10 * time.Second):
		close(releaseA)
		t.Fatal("load of b serialized behind the stalled load of a")
	}

	close(releaseA)
	if err := <-aDone; err != nil {
		t.Fatalf("load of a: %v", err)
	}
}

// TestRecoveryBootPrefersMostRecentlyModified: when journaled sessions exceed
// MaxSessions, boot recovery must spend its budget on the most recently
// modified journals, not an arbitrary prefix of the sorted listing.
func TestRecoveryBootPrefersMostRecentlyModified(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(dir, durableConfig())
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"s1", "s2", "s3", "s4"}
	for _, id := range ids {
		s, err := e.Create(id, 10, sessionCfg())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Append([]votes.Vote{{Item: 1, Worker: 0, Label: votes.Dirty}}, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Stamp s2 and s4 as the hot working set; s1 and s3 as stale. Every file
	// in a session dir gets the stamp so the max-mtime rule has one answer.
	base := time.Now().Add(-24 * time.Hour)
	stamp := map[string]time.Time{
		"s1": base,
		"s3": base.Add(time.Hour),
		"s2": base.Add(2 * time.Hour),
		"s4": base.Add(3 * time.Hour),
	}
	for id, ts := range stamp {
		ents, err := os.ReadDir(filepath.Join(dir, id))
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range ents {
			if err := os.Chtimes(filepath.Join(dir, id, ent.Name()), ts, ts); err != nil {
				t.Fatal(err)
			}
		}
	}

	cfg := durableConfig()
	cfg.MaxSessions = 2
	e2, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	for _, id := range []string{"s2", "s4"} {
		if _, live := e2.Get(id); !live {
			t.Fatalf("recently modified session %q not recovered eagerly", id)
		}
	}
	for _, id := range []string{"s1", "s3"} {
		if _, live := e2.Get(id); live {
			t.Fatalf("stale session %q recovered eagerly over a hotter one", id)
		}
	}
	// The stale ones are still on disk and loadable.
	if _, ok := e2.GetOrLoad("s1"); !ok {
		t.Fatal("stale session lost entirely")
	}
	if sessions, elapsed := e2.BootRecovery(); sessions != 2 || elapsed <= 0 {
		t.Fatalf("BootRecovery() = (%d, %v), want (2, >0)", sessions, elapsed)
	}
}
