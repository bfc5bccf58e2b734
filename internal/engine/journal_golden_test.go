package engine

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dqm/internal/votelog"
	"dqm/internal/votes"
	"dqm/internal/wal"
	"dqm/internal/window"
)

// goldenFixture holds a data dir and its estimates.json, written from
// goldenStream under FsyncNever by the build before every session mutator
// returned an error. The journal encoding is a compatibility contract, so
// any build must write the same segment bytes from the same stream and
// recover the estimates that build recorded.
const goldenFixture = "testdata/journal-golden"

var goldenIDs = []string{"plain", "windowed"}

func goldenConfig(dir string) Config {
	return Config{DataDir: dir, WAL: wal.Options{Fsync: wal.FsyncNever}}
}

// goldenStream drives a fixed mutation stream through every mutator —
// Record, EndTask, Append with and without a boundary, AppendColumns with and
// without a boundary, and Reset — over a plain and a windowed session. The
// window's stride of 3 against the stream's period of 4 makes rotations fall
// on every kind of boundary.
func goldenStream(t *testing.T, e *Engine) []*Session {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	const n = 30
	plain, err := e.Create(goldenIDs[0], n, sessionCfg())
	must(err)
	windowed, err := e.Create(goldenIDs[1], n, windowedSessionCfg())
	must(err)
	sessions := []*Session{plain, windowed}
	for i, s := range sessions {
		rng := rand.New(rand.NewSource(int64(40 + i)))
		vote := func() votes.Vote {
			label := votes.Clean
			if rng.Intn(3) == 0 {
				label = votes.Dirty
			}
			return votes.Vote{Item: rng.Intn(n), Worker: rng.Intn(7) - 2, Label: label}
		}
		columns := func(k int) []byte {
			var raw []byte
			for ; k > 0; k-- {
				v := vote()
				raw = votelog.AppendBinaryVote(raw, int32(v.Item), int32(v.Worker), v.Label == votes.Dirty)
			}
			return raw
		}
		for task := 0; task < 40; task++ {
			switch task % 4 {
			case 0:
				for k := 0; k < 3; k++ {
					v := vote()
					must(s.Record(v.Item, v.Worker, v.Label == votes.Dirty))
				}
				must(s.EndTask())
			case 1:
				must(s.Append([]votes.Vote{vote(), vote()}, true))
			case 2:
				must(s.Append([]votes.Vote{vote()}, false))
				must(s.Append([]votes.Vote{vote(), vote()}, true))
			case 3:
				_, err := s.AppendColumns(columns(2), false)
				must(err)
				_, err = s.AppendColumns(columns(3), true)
				must(err)
			}
			if task == 21 {
				must(s.Reset())
			}
		}
	}
	return sessions
}

// goldenJSON renders what the sessions serve: all-time estimates, counters
// and every window view.
func goldenJSON(t *testing.T, sessions []*Session) []byte {
	t.Helper()
	out := map[string]any{}
	for _, s := range sessions {
		g := map[string]any{"all": s.Estimates(), "votes": s.TotalVotes(), "tasks": s.Tasks()}
		if s.Windowed() {
			for _, k := range []window.Kind{window.KindCurrent, window.KindLast, window.KindDecayed} {
				r, err := s.WindowEstimates(k)
				if err != nil {
					t.Fatal(err)
				}
				g[k.String()] = r
			}
		}
		out[s.ID()] = g
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// segments reads every wal-*.seg file of a session dir, keyed by name.
func segments(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no journal segments in %s", dir)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = b
	}
	return out
}

// TestJournalGoldenBytes writes goldenStream with this build and checks it
// against the fixture: the same served estimates, byte-identical journal
// segments, and recovery of the fixture's own data dir to its recorded
// estimates.
func TestJournalGoldenBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join(goldenFixture, "estimates.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	e, err := Open(goldenConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenJSON(t, goldenStream(t, e)); !bytes.Equal(got, want) {
		t.Fatalf("live estimates differ from the recorded ones:\n got %s\nwant %s", got, want)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for _, id := range goldenIDs {
		got := segments(t, filepath.Join(dir, id))
		fixture := segments(t, filepath.Join(goldenFixture, "data", id))
		if len(got) != len(fixture) {
			t.Fatalf("%s: wrote %d segments, fixture has %d", id, len(got), len(fixture))
		}
		for name, b := range fixture {
			if !bytes.Equal(got[name], b) {
				t.Fatalf("%s/%s: journal bytes differ from the fixture (%d vs %d bytes)", id, name, len(got[name]), len(b))
			}
		}
	}

	rdir := t.TempDir()
	copyDir(t, filepath.Join(goldenFixture, "data"), rdir)
	e2, err := Open(goldenConfig(rdir))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	var recovered []*Session
	for _, id := range goldenIDs {
		s, ok := e2.Get(id)
		if !ok {
			t.Fatalf("session %q not recovered", id)
		}
		recovered = append(recovered, s)
	}
	if got := goldenJSON(t, recovered); !bytes.Equal(got, want) {
		t.Fatalf("recovered estimates differ from the recorded ones:\n got %s\nwant %s", got, want)
	}
}
