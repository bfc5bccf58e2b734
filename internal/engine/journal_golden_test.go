package engine

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dqm/internal/votelog"
	"dqm/internal/votes"
	"dqm/internal/wal"
	"dqm/internal/window"
)

// goldenFixture holds a data dir and its estimates.json, written from
// goldenStream under FsyncNever by the build before every session mutator
// returned an error, in the per-vote and columnar vote records of that time.
// Any build must recover the estimates that build recorded.
const goldenFixture = "testdata/journal-golden"

// blockFixture is goldenStream written by the first build that journals every
// vote batch as one block record, each batch in a frame of its own. Its
// estimates.json equals goldenFixture's: the encoding changed, the recovered
// state did not.
const blockFixture = "testdata/journal-block"

// flushFixture is goldenStream written by the first build that seals one
// frame per buffer flush instead of one per batch: the same block records,
// fewer frames. Its estimates.json equals goldenFixture's.
const flushFixture = "testdata/journal-flush"

// packedFixture is goldenStream written by the first build that journals
// every vote batch as one bit-packed record, with the task boundary that
// ends it folded in. Its estimates.json equals goldenFixture's.
const packedFixture = "testdata/journal-packed"

// sortedFixture is goldenStream written by the first build that journals
// every vote batch as one record of its votes sorted by item, the gaps
// between items Rice-coded. The journal encoding is a compatibility
// contract, so any build must write the same segment bytes from the same
// stream under the same flushes. Its estimates.json equals goldenFixture's.
const sortedFixture = "testdata/journal-sorted"

var goldenIDs = []string{"plain", "windowed"}

func goldenConfig() Config {
	return Config{WAL: wal.Options{Fsync: wal.FsyncNever}}
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
// against the fixtures: the same served estimates, journal segments
// byte-identical to sortedFixture's, and recovery of every fixture's data dir
// to its recorded estimates.
func TestJournalGoldenBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join(goldenFixture, "estimates.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, fixture := range []string{blockFixture, flushFixture, packedFixture, sortedFixture} {
		if b, err := os.ReadFile(filepath.Join(fixture, "estimates.json")); err != nil || !bytes.Equal(b, want) {
			t.Fatalf("%s/estimates.json differs from %s's (err %v)", fixture, goldenFixture, err)
		}
	}
	dir := t.TempDir()
	// Frames are sealed only by the flushes the stream itself causes (here
	// only the final Close): no timed syncer pass may fall inside it.
	cfg := goldenConfig()
	cfg.WAL.BatchInterval = time.Hour
	e, err := Open(dir, cfg)
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
		fixture := segments(t, filepath.Join(sortedFixture, "data", id))
		if len(got) != len(fixture) {
			t.Fatalf("%s: wrote %d segments, fixture has %d", id, len(got), len(fixture))
		}
		for name, b := range fixture {
			if !bytes.Equal(got[name], b) {
				t.Fatalf("%s/%s: journal bytes differ from the fixture (%d vs %d bytes)", id, name, len(got[name]), len(b))
			}
		}
	}

	for _, fixture := range []string{goldenFixture, blockFixture, flushFixture, packedFixture, sortedFixture} {
		rdir := t.TempDir()
		copyDir(t, filepath.Join(fixture, "data"), rdir)
		e2, err := Open(rdir, goldenConfig())
		if err != nil {
			t.Fatal(err)
		}
		var recovered []*Session
		for _, id := range goldenIDs {
			s, ok := e2.Get(id)
			if !ok {
				t.Fatalf("%s: session %q not recovered", fixture, id)
			}
			recovered = append(recovered, s)
		}
		if got := goldenJSON(t, recovered); !bytes.Equal(got, want) {
			t.Fatalf("%s: recovered estimates differ from the recorded ones:\n got %s\nwant %s", fixture, got, want)
		}
		if err := e2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// goldenMore continues goldenStream on its sessions through every mutator,
// with votes that share a worker per task as well as mixed ones.
func goldenMore(t *testing.T, sessions []*Session, tasks int) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range sessions {
		rng := rand.New(rand.NewSource(int64(70 + i)))
		n := s.NumItems()
		batch := func(k int, shared bool) []votes.Vote {
			w := rng.Intn(9) - 3
			out := make([]votes.Vote, k)
			for j := range out {
				if !shared {
					w = rng.Intn(9) - 3
				}
				out[j] = votes.Vote{Item: rng.Intn(n), Worker: w, Label: votes.Label(rng.Intn(2))}
			}
			return out
		}
		raw := func(b []votes.Vote) []byte {
			var out []byte
			for _, v := range b {
				out = votelog.AppendBinaryVote(out, int32(v.Item), int32(v.Worker), v.Label == votes.Dirty)
			}
			return out
		}
		for task := 0; task < tasks; task++ {
			switch task % 4 {
			case 0:
				must(s.Append(batch(1+rng.Intn(6), true), true))
			case 1:
				must(s.Append(batch(1+rng.Intn(6), false), true))
			case 2:
				_, err := s.AppendColumns(raw(batch(1+rng.Intn(6), task%8 == 2)), true)
				must(err)
			case 3:
				blocks := []votelog.TaskBlock{
					{Task: 0, Raw: raw(batch(2, true))},
					{Task: 0, Raw: raw(batch(3, false))},
					{Task: 1, Raw: raw(batch(4, true))},
				}
				_, _, err := s.AppendLog(blocks)
				must(err)
				v := batch(1, true)[0]
				must(s.Record(v.Item, v.Worker, v.Label == votes.Dirty))
				must(s.EndTask())
			}
		}
	}
}

// TestGoldenFixtureUpgradesThroughCompaction recovers the data dirs earlier
// builds wrote — goldenFixture, whose votes are in per-vote and columnar
// records, flushFixture, in block records, and packedFixture, in bit-packed
// ones — keeps ingesting under thresholds small enough to rotate and compact
// repeatedly, so compaction reads old and new records together and rewrites
// them as sorted ones, and checks the served estimates and window views
// against a fresh in-memory replay of the same stream: live, and again
// after a reopen.
func TestGoldenFixtureUpgradesThroughCompaction(t *testing.T) {
	for _, fixture := range []string{goldenFixture, flushFixture, packedFixture} {
		t.Run(filepath.Base(fixture), func(t *testing.T) { upgradeThroughCompaction(t, fixture) })
	}
}

func upgradeThroughCompaction(t *testing.T, fixture string) {
	dir := t.TempDir()
	copyDir(t, filepath.Join(fixture, "data"), dir)
	cfg := Config{WAL: wal.Options{Fsync: wal.FsyncNever, SegmentBytes: 256, CompactAfter: 512}}
	e, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var durable []*Session
	for _, id := range goldenIDs {
		s, ok := e.Get(id)
		if !ok {
			t.Fatalf("session %q not recovered", id)
		}
		durable = append(durable, s)
	}
	ref := New(Config{})
	defer ref.Close()
	fresh := goldenStream(t, ref)
	if got, want := goldenJSON(t, durable), goldenJSON(t, fresh); !bytes.Equal(got, want) {
		t.Fatalf("recovered fixture differs from a fresh replay:\n got %s\nwant %s", got, want)
	}
	const more = 120
	goldenMore(t, durable, more)
	goldenMore(t, fresh, more)
	want := goldenJSON(t, fresh)
	if got := goldenJSON(t, durable); !bytes.Equal(got, want) {
		t.Fatalf("live estimates after the upgrade differ from a fresh replay:\n got %s\nwant %s", got, want)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for _, id := range goldenIDs {
		snaps, _ := filepath.Glob(filepath.Join(dir, id, "snap-*.bin"))
		if len(snaps) == 0 {
			t.Fatalf("%s: no snapshot written; compaction never ran", id)
		}
		if _, err := os.Stat(filepath.Join(dir, id, "wal-0000000000000001.seg")); !os.IsNotExist(err) {
			t.Fatalf("%s: the fixture's own segment survived compaction (stat err %v)", id, err)
		}
	}
	e2, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	var recovered []*Session
	for _, id := range goldenIDs {
		s, ok := e2.Get(id)
		if !ok {
			t.Fatalf("session %q not recovered after the upgrade", id)
		}
		recovered = append(recovered, s)
	}
	if got := goldenJSON(t, recovered); !bytes.Equal(got, want) {
		t.Fatalf("recovered estimates after the upgrade differ from a fresh replay:\n got %s\nwant %s", got, want)
	}
}
