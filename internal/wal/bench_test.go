package wal

import (
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"dqm/internal/votes"
)

// benchBatch is a 1000-vote task over 512 items, a third of the votes dirty:
// from 25 workers in turn, or from worker 7 alone when shared is set.
func benchBatch(shared bool) []votes.Vote {
	batch := make([]votes.Vote, 1000)
	for i := range batch {
		label := votes.Clean
		if i%3 == 0 {
			label = votes.Dirty
		}
		w := i % 25
		if shared {
			w = 7
		}
		batch[i] = votes.Vote{Item: i % 512, Worker: w, Label: label}
	}
	return batch
}

// taskStream is a fixed stream of 1,000 bench-shaped crowd tasks: 20 votes
// each, from one worker per task, over 5,000 items, about 5% of them dirty.
func taskStream() [][]votes.Vote {
	rng := rand.New(rand.NewSource(1))
	tasks := make([][]votes.Vote, 1000)
	for i := range tasks {
		task := make([]votes.Vote, 20)
		worker := rng.Intn(200)
		for j := range task {
			task[j] = mkVote(rng.Intn(5000), worker, rng.Intn(20) == 0)
		}
		tasks[i] = task
	}
	return tasks
}

// BenchmarkTaskRecords times the journal's vote record on taskStream: encode
// writes one task a op as Stage does, its boundary folded in; decode replays
// the whole stream a op through the batched hooks, as recovery does. encode
// also reports B/vote, the stream's encoded bytes per vote: it depends on
// the record format alone, not on b.N or the host, so the baseline gate
// holds it to a count where it cannot hold a disk-bound time.
func BenchmarkTaskRecords(b *testing.B) {
	tasks := taskStream()
	var stream []byte
	n := 0
	for _, task := range tasks {
		stream = mustSorted(stream, task, true)
		n += len(task)
	}
	perVote := float64(len(stream)) / float64(n)
	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if buf, err = appendSorted(buf[:0], tasks[i%len(tasks)], true); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*20), "ns/vote")
		b.ReportMetric(perVote, "B/vote")
	})
	b.Run("decode", func(b *testing.B) {
		got := 0
		h := Hooks{Votes: func(batch []votes.Vote) error { got += len(batch); return nil }, Batch: new([]votes.Vote)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := decodeRecords(stream, h); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if got != b.N*n {
			b.Fatalf("decoded %d votes, want %d", got, b.N*n)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/vote")
	})
}

// noCompaction keeps compaction out of a benchmark's reach: no run writes
// that much sealed journal. BenchmarkCompaction measures compaction alone.
const noCompaction = math.MaxInt64

// BenchmarkJournalAppend measures raw journal throughput per fsync policy,
// staging and committing 1000-vote tasks (the group-commit unit the engine
// hands down), segment rotation included. Compare against
// BenchmarkSessionIngestDurable in internal/engine for the same writes
// journaled and applied by a session.
func BenchmarkJournalAppend(b *testing.B) {
	const batchSize = 1000
	batch := benchBatch(false)
	for _, p := range []FsyncPolicy{FsyncNever, FsyncBatch, FsyncAlways} {
		b.Run(p.String(), func(b *testing.B) {
			s, err := OpenStore(b.TempDir(), Options{Fsync: p, BatchInterval: 100 * time.Millisecond, CompactAfter: noCompaction})
			if err != nil {
				b.Fatal(err)
			}
			j, err := s.Create(Meta{ID: fmt.Sprintf("bench-%s", p), Items: 512, CreatedAt: time.Now()})
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := appendCommit(j, batch, true, -1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			votesPerSec := float64(b.N) * batchSize / b.Elapsed().Seconds()
			b.ReportMetric(votesPerSec/1e6, "Mvotes/s")
		})
	}
}

// BenchmarkGroupCommit measures aggregate commit throughput with one journal
// per goroutine through a single store's shared syncer — the cross-session
// group-commit shape. Under FsyncAlways every append waits for durability,
// but concurrent waiters share fsync passes instead of each paying its own;
// compare against BenchmarkJournalAppend/always (one lone committer) to see
// the sharing win, and against BenchmarkSessionIngest for the cost of the
// journal beside an in-memory session's.
func BenchmarkGroupCommit(b *testing.B) {
	const batchSize = 1000
	batch := benchBatch(false)
	for _, p := range []FsyncPolicy{FsyncBatch, FsyncAlways} {
		b.Run(p.String(), func(b *testing.B) {
			s, err := OpenStore(b.TempDir(), Options{Fsync: p, BatchInterval: 100 * time.Millisecond, CompactAfter: noCompaction})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			var id atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				j, err := s.Create(Meta{ID: fmt.Sprintf("gc-%d", id.Add(1)), Items: 512, CreatedAt: time.Now()})
				if err != nil {
					b.Error(err)
					return
				}
				defer j.Close()
				for pb.Next() {
					if err := appendCommit(j, batch, true, -1); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			votesPerSec := float64(b.N) * batchSize / b.Elapsed().Seconds()
			b.ReportMetric(votesPerSec/1e6, "Mvotes/s")
		})
	}
}

// BenchmarkCompaction measures one compaction. Each op rewrites the same
// sealed history into a snapshot: 200 tasks of 1000 votes, one worker per
// task in every other task and 25 in turn in the rest, in 64 KiB segments.
// Copying the history into a fresh directory and recovering it are set-up,
// off the timer.
func BenchmarkCompaction(b *testing.B) {
	const tasks = 200
	opts := Options{Fsync: FsyncNever, SegmentBytes: 64 << 10, CompactAfter: noCompaction}
	history := b.TempDir()
	s, err := OpenStore(history, opts)
	if err != nil {
		b.Fatal(err)
	}
	j, err := s.Create(Meta{ID: "compact", Items: 512, CreatedAt: time.Now()})
	if err != nil {
		b.Fatal(err)
	}
	shared, mixed := benchBatch(true), benchBatch(false)
	for t := 0; t < tasks; t++ {
		batch := mixed
		if t%2 == 0 {
			batch = shared
		}
		if err := appendCommit(j, batch, true, -1); err != nil {
			b.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	work := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(work, strconv.Itoa(i))
		if err := copyTree(dir, history); err != nil {
			b.Fatal(err)
		}
		s, err := OpenStore(dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		j, err := s.Recover("compact", Hooks{})
		if err != nil {
			b.Fatal(err)
		}
		if j.sealedBytes == 0 {
			b.Fatal("the history has no sealed segment to compact")
		}
		b.StartTimer()
		j.mu.Lock()
		err = j.compactLocked()
		j.mu.Unlock()
		b.StopTimer()
		if err != nil || j.snapSeq == 0 {
			b.Fatalf("compaction: snapshot %d, err %v", j.snapSeq, err)
		}
		if err := j.Close(); err != nil {
			b.Fatal(err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*tasks*1000/b.Elapsed().Seconds()/1e6, "Mvotes/s")
}

// copyTree copies the directory tree at src to dst.
func copyTree(dst, src string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, data, 0o644)
	})
}
