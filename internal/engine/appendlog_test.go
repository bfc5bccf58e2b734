package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dqm/internal/votelog"
	"dqm/internal/wal"
	"dqm/internal/window"
)

// appendLogWindows are the window configs the AppendLog tests run under: no
// window, tumbling, two sliding shapes and the 64-pane limit.
var appendLogWindows = []*window.Config{
	nil,
	{Size: 4},
	{Size: 5, Stride: 2},
	{Size: 7, Stride: 3, DecayAlpha: 0.5},
	{Size: 64, Stride: 1},
}

// randomLog builds one split binary vote log of 1 to maxBlocks blocks over n
// items. About one block in five keeps the previous block's task id (a
// redundant 'T' record), so some blocks end no task.
func randomLog(rng *rand.Rand, n, maxBlocks int, task *int32) []votelog.TaskBlock {
	blocks := make([]votelog.TaskBlock, 1+rng.Intn(maxBlocks))
	for i := range blocks {
		if i == 0 || rng.Intn(5) != 0 {
			*task++
		}
		raw, batch := colBatch(rng, n, 1+rng.Intn(6))
		blocks[i] = votelog.TaskBlock{Task: *task, Raw: raw, Votes: len(batch)}
	}
	return blocks
}

// appendPerBlock is the reference AppendLog must match: one AppendColumns
// call per block, each a separate journal commit.
func appendPerBlock(s *Session, blocks []votelog.TaskBlock) (nVotes, nTasks int, err error) {
	for i, b := range blocks {
		end := i+1 == len(blocks) || blocks[i+1].Task != b.Task
		n, err := s.AppendColumns(b.Raw, end)
		if err != nil {
			return nVotes, nTasks, err
		}
		nVotes += n
		if end {
			nTasks++
		}
	}
	return nVotes, nTasks, nil
}

// journalFiles reads every segment and snapshot of a session dir, keyed by
// name (meta.json carries a creation time, so it is left out).
func journalFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range ents {
		if name := e.Name(); strings.HasPrefix(name, "wal-") || strings.HasPrefix(name, "snap-") {
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			out[name] = b
		}
	}
	return out
}

// TestDurableAppendLogMatchesPerBlockCommits is the property behind staging
// a whole log before one commit: over random multi-task logs and every
// window shape, AppendLog must write byte-identical segments and snapshots to
// one AppendColumns per block, serve the same estimates (window views
// included) and report the same counters, publish one version per block, and
// recover that state after close and reopen.
func TestDurableAppendLogMatchesPerBlockCommits(t *testing.T) {
	const n, logs = 30, 12
	for ci, wcfg := range appendLogWindows {
		name := "none"
		if wcfg != nil {
			name = fmt.Sprintf("size%d-stride%d", wcfg.Size, wcfg.Stride)
		}
		t.Run(name, func(t *testing.T) {
			cfg := sessionCfg()
			cfg.Window = wcfg
			logDir, refDir := t.TempDir(), t.TempDir()
			// A timed syncer pass seals the open frame wherever it finds
			// it, so it would split the two engines' frames, and their
			// segment rotations, at different points; an hour-long interval
			// leaves every frame boundary to the writes themselves.
			engCfg := durableConfig()
			engCfg.WAL.BatchInterval = time.Hour
			logEng, err := Open(logDir, engCfg)
			if err != nil {
				t.Fatal(err)
			}
			refEng, err := Open(refDir, engCfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := logEng.Create("s", n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refEng.Create("s", n, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(40 + ci)))
			task := int32(0)
			for l := 0; l < logs; l++ {
				blocks := randomLog(rng, n, 40, &task)
				before := got.Version()
				gv, gt, gerr := got.AppendLog(blocks)
				wv, wt, werr := appendPerBlock(want, blocks)
				if gerr != nil || werr != nil {
					t.Fatalf("log %d: AppendLog err %v, per-block err %v", l, gerr, werr)
				}
				if gv != wv || gt != wt {
					t.Fatalf("log %d: AppendLog = (%d, %d), per-block = (%d, %d)", l, gv, gt, wv, wt)
				}
				if d := got.Version() - before; d != uint64(len(blocks)) {
					t.Fatalf("log %d: version moved by %d over %d blocks, want one per block", l, d, len(blocks))
				}
				if g, w := captureWinState(got), captureWinState(want); !reflect.DeepEqual(g, w) {
					t.Fatalf("log %d: AppendLog state diverges from per-block commits", l)
				}
			}
			live := captureWinState(got)
			if live.tasks < 64 {
				t.Fatalf("only %d tasks ingested; the 64-pane config never rotates", live.tasks)
			}
			if err := logEng.Close(); err != nil {
				t.Fatal(err)
			}
			if err := refEng.Close(); err != nil {
				t.Fatal(err)
			}
			gotFiles := journalFiles(t, filepath.Join(logDir, "s"))
			if wantFiles := journalFiles(t, filepath.Join(refDir, "s")); !reflect.DeepEqual(gotFiles, wantFiles) {
				t.Fatalf("journal files differ: AppendLog wrote %d files, per-block commits %d", len(gotFiles), len(wantFiles))
			}
			reopened, err := Open(logDir, durableConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			s, ok := reopened.GetOrLoad("s")
			if !ok {
				t.Fatal("session not recovered")
			}
			if rec := captureWinState(s); !reflect.DeepEqual(rec, live) {
				t.Fatal("recovered state diverges from the live session")
			}
		})
	}
}

// TestDurableAppendLogInvalidTaskKeepsPrefix: an out-of-population item in
// task k of a durable windowed session reports the votes and tasks before k;
// exactly those k tasks, with their window rotations, are journaled durably
// before the call returns (a copy of the data dir taken then recovers them)
// and nothing of task k or later is applied.
func TestDurableAppendLogInvalidTaskKeepsPrefix(t *testing.T) {
	const n, k = 20, 7
	wcfg := window.Config{Size: 3, Stride: 1, DecayAlpha: 0.5}
	cfg := sessionCfg()
	cfg.Window = &wcfg
	dir := t.TempDir()
	e, err := Open(dir, Config{WAL: wal.Options{Fsync: wal.FsyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s, err := e.Create("s", n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// ref is fed the k-task prefix through the Entry path.
	ref := NewSession("ref", n, cfg)
	rng := rand.New(rand.NewSource(9))
	blocks := make([]votelog.TaskBlock, 12)
	prefixVotes := 0
	for i := range blocks {
		raw, batch := colBatch(rng, n, 4)
		if i == k {
			raw = votelog.AppendBinaryVote(raw, n, 0, true)
		}
		if i < k {
			prefixVotes += len(batch)
			if err := ref.Append(batch, true); err != nil {
				t.Fatal(err)
			}
		}
		blocks[i] = votelog.TaskBlock{Task: int32(i), Raw: raw}
	}
	nVotes, nTasks, err := s.AppendLog(blocks)
	var je *JournalError
	if err == nil || errors.As(err, &je) || !strings.Contains(err.Error(), "outside population") {
		t.Fatalf("AppendLog err = %v, want the item validation error", err)
	}
	if nVotes != prefixVotes || nTasks != k {
		t.Fatalf("AppendLog = (%d, %d), want (%d, %d)", nVotes, nTasks, prefixVotes, k)
	}
	want := captureWinState(ref)
	if !want.lastOK {
		t.Fatal("the prefix seals no window; the rotation half of the check is vacuous")
	}
	if got := captureWinState(s); !reflect.DeepEqual(got, want) {
		t.Fatal("live state is not exactly the k-task prefix")
	}
	crashed := t.TempDir()
	copyDir(t, dir, crashed)
	e2, err := Open(crashed, Config{WAL: wal.Options{Fsync: wal.FsyncAlways}})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	rec, ok := e2.GetOrLoad("s")
	if !ok {
		t.Fatal("session not recovered")
	}
	if got := captureWinState(rec); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %d tasks / %d votes, want exactly the %d-task prefix (%d votes)",
			got.tasks, got.votes, k, want.votes)
	}
}
