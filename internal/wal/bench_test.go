package wal

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dqm/internal/votes"
)

// BenchmarkJournalAppend measures raw journal throughput per fsync policy,
// appending 1000-vote tasks (the group-commit unit the engine hands down).
// Compare against BenchmarkEngineAppend in internal/engine for the in-memory
// baseline the acceptance criteria reference.
func BenchmarkJournalAppend(b *testing.B) {
	const batchSize = 1000
	batch := make([]votes.Vote, batchSize)
	for i := range batch {
		label := votes.Clean
		if i%3 == 0 {
			label = votes.Dirty
		}
		batch[i] = votes.Vote{Item: i % 512, Worker: i % 25, Label: label}
	}
	for _, p := range []FsyncPolicy{FsyncNever, FsyncBatch, FsyncAlways} {
		b.Run(p.String(), func(b *testing.B) {
			s, err := OpenStore(b.TempDir(), Options{Fsync: p, BatchInterval: 100 * time.Millisecond})
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
				if err := j.Append(batch, true, -1); err != nil {
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
// the sharing win, and against BenchmarkSessionIngest for the acceptance
// ratio the ISSUE pins.
func BenchmarkGroupCommit(b *testing.B) {
	const batchSize = 1000
	batch := make([]votes.Vote, batchSize)
	for i := range batch {
		label := votes.Clean
		if i%3 == 0 {
			label = votes.Dirty
		}
		batch[i] = votes.Vote{Item: i % 512, Worker: i % 25, Label: label}
	}
	for _, p := range []FsyncPolicy{FsyncBatch, FsyncAlways} {
		b.Run(p.String(), func(b *testing.B) {
			s, err := OpenStore(b.TempDir(), Options{Fsync: p, BatchInterval: 100 * time.Millisecond})
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
					if err := j.Append(batch, true, -1); err != nil {
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
