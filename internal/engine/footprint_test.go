package engine

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"dqm/internal/votes"
	"dqm/internal/window"
	"dqm/internal/xrand"
)

// footprintTasks builds the stream every footprint session ingests: tasks of
// 20 votes, each task one of 25 workers, over n items of which 5% are dirty
// and each vote wrong with probability 0.1.
func footprintTasks(n, tasks int) [][]votes.Vote {
	rng := xrand.New(12)
	out := make([][]votes.Vote, tasks)
	for t := range out {
		batch := make([]votes.Vote, 20)
		for k := range batch {
			item := rng.IntN(n)
			dirty := item%20 == 0
			if rng.Float64() < 0.1 {
				dirty = !dirty
			}
			label := votes.Clean
			if dirty {
				label = votes.Dirty
			}
			batch[k] = votes.Vote{Item: item, Worker: t % 25, Label: label}
		}
		out[t] = batch
	}
	return out
}

// TestSessionFootprint pins per-session memory to O(items): a default-config
// 5000-item session that has ingested 150 tasks × 20 votes must hold at most
// 16 KB of live heap. No item holds more than 15 votes, so its per-item state
// takes about 10 KB (one 2-byte row per item: the matrix's 4-bit vote counts
// and the SWITCH tracker's 4-bit switch state), and the whole session about
// 11 KB. Rows that start 8 bits wide (about 23 KB a session) fail this, and
// so do a second copy of the row array (10 KB more) and keeping each vote as
// well (about 290 KB more). The figure is the live-heap delta after a forced
// GC, averaged over 64 sessions; the test does not run in parallel with
// others.
func TestSessionFootprint(t *testing.T) {
	const (
		sessions = 64
		n        = 5000
		limit    = 16 << 10
	)
	stream := footprintTasks(n, 150)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	live := make([]*Session, sessions)
	for i := range live {
		s := NewSession("footprint", n, SessionConfig{})
		for _, task := range stream {
			if err := s.Append(task, true); err != nil {
				t.Fatal(err)
			}
		}
		s.Estimates()
		live[i] = s
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(live)
	runtime.KeepAlive(stream)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / sessions
	t.Logf("live heap per session: %d B (%.1f KB)", per, float64(per)/1024)
	if per > limit {
		t.Fatalf("live heap per session = %d B, want <= %d B", per, limit)
	}
}

// TestHostileWorkerIDGrowsHeapOnce: one vote from worker 2²³−1, the largest
// ID the dense worker bitset holds, grows that bitset to 1 MiB. Distinct
// workers are counted once per session, so a sliding-window session with 64
// open panes pays for it once, not once per pane suite: its live heap grows by
// at most 2 MB.
func TestHostileWorkerIDGrowsHeapOnce(t *testing.T) {
	const n = 1000
	s := NewSession("hostile", n, SessionConfig{Window: &window.Config{Size: 64, Stride: 1}})
	for _, task := range footprintTasks(n, 70) {
		if err := s.Append(task, true); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := s.Record(0, 1<<23-1, true); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("live heap growth: %d B (%.2f MB)", grown, float64(grown)/(1<<20))
	if grown > 2<<20 {
		t.Fatalf("one vote from worker %d grew the live heap by %d B, want <= %d B", 1<<23-1, grown, 2<<20)
	}
	if got := s.NumWorkers(); got != 26 {
		t.Fatalf("NumWorkers = %d, want 26 (25 stream workers and the hostile one)", got)
	}
}

// TestCreateRefusesOversizedPopulation: a create whose suites would hold more
// than window.MaxItemStates per-item states is refused before anything is
// allocated or evicted, with or without a window. The refused requests ask
// for about 32 GB and 1 GiB; the heap must not grow by 1 MB, and the session
// already registered must keep its place although MaxSessions is reached.
func TestCreateRefusesOversizedPopulation(t *testing.T) {
	e := New(Config{MaxSessions: 1})
	if _, err := e.Create("keep", 5, SessionConfig{}); err != nil {
		t.Fatal(err)
	}
	wide := &window.Config{Size: 64, Stride: 1} // 64 panes: 65 suites
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, c := range []struct {
		n   int
		cfg SessionConfig
	}{
		{2_000_000_000, SessionConfig{}},
		{window.MaxItemStates + 1, SessionConfig{}},
		{window.MaxItemStates/65 + 1, SessionConfig{Window: wide}},
	} {
		if _, err := e.Create("huge", c.n, c.cfg); err == nil {
			t.Fatalf("Create(%d items, window %v) accepted", c.n, c.cfg.Window)
		}
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown >= 1<<20 {
		t.Fatalf("refused creates allocated %d B, want < 1 MB", grown)
	}
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown >= 1<<20 {
		t.Fatalf("refused creates grew the heap by %d B, want < 1 MB", grown)
	}
	if _, ok := e.Get("keep"); !ok || e.Len() != 1 || e.Evictions() != 0 {
		t.Fatalf("refused create changed the table: keep live %v, Len %d, evictions %d", ok, e.Len(), e.Evictions())
	}
}

// TestRecoverMetaWithHistoryFlag recovers a data dir written before the
// vote history became opt-in: each session's stored config still carries the
// removed "WithoutHistory":false field. Recovery must ignore the field and
// reproduce the estimates that version computed, recorded in estimates.json
// next to the data: all-time estimates, every window view and a bootstrap
// interval over the recovered switch ledgers.
func TestRecoverMetaWithHistoryFlag(t *testing.T) {
	const fixture = "testdata/upgrade-history"
	dir := t.TempDir()
	copyDir(t, filepath.Join(fixture, "data"), dir)
	want, err := os.ReadFile(filepath.Join(fixture, "estimates.json"))
	if err != nil {
		t.Fatal(err)
	}
	e, err := Open(dir, durableConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	got := map[string]any{}
	for _, id := range []string{"legacy", "legacy-window"} {
		meta, err := e.store.ReadMeta(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(meta.Config, []byte(`"WithoutHistory":false`)) {
			t.Fatalf("%s: fixture config lost the legacy field: %s", id, meta.Config)
		}
		s, ok := e.GetOrLoad(id)
		if !ok {
			t.Fatalf("session %q not recovered", id)
		}
		g := map[string]any{"all": s.Estimates(), "votes": s.TotalVotes(), "tasks": s.Tasks()}
		if s.Windowed() {
			for _, k := range []window.Kind{window.KindCurrent, window.KindLast, window.KindDecayed} {
				r, err := s.WindowEstimates(k)
				if err != nil {
					t.Fatal(err)
				}
				g[k.String()] = r
			}
			ci, err := s.SwitchCI(200, 0.9)
			if err != nil {
				t.Fatal(err)
			}
			g["switch_ci"] = ci
		}
		got[id] = g
	}
	b, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if b = append(b, '\n'); !bytes.Equal(b, want) {
		t.Fatalf("recovered estimates differ from the recorded ones:\n got %s\nwant %s", b, want)
	}
}
