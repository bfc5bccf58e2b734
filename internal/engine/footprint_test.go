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
// 160 KB of live heap. Its per-item state takes about 120 KB; keeping each
// vote as well would take about 368 KB, so any per-vote structure in the
// default config fails this. The figure is the live-heap delta after a
// forced GC, averaged over 64 sessions; the test does not run in parallel
// with others.
func TestSessionFootprint(t *testing.T) {
	const (
		sessions = 64
		n        = 5000
		limit    = 160 << 10
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
	e, err := Open(durableConfig(dir))
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
