package engine

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dqm/internal/estimator"
	"dqm/internal/hub"
	"dqm/internal/policy"
	"dqm/internal/votelog"
	"dqm/internal/votes"
	"dqm/internal/wal"
	"dqm/internal/window"
	"dqm/internal/xrand"
)

// syntheticBatch builds one task-sized batch of votes over n items.
func syntheticBatch(n, size, round int) []votes.Vote {
	batch := make([]votes.Vote, size)
	for i := range batch {
		label := votes.Clean
		if (round+i)%3 == 0 {
			label = votes.Dirty
		}
		batch[i] = votes.Vote{Item: (round*7 + i) % n, Worker: round % 25, Label: label}
	}
	return batch
}

// BenchmarkSessionIngest measures single-session streaming ingest through
// Append (one lock acquisition per 10-vote task).
func BenchmarkSessionIngest(b *testing.B) {
	const n, batchSize = 10000, 10
	s := NewSession("bench", n, SessionConfig{})
	batches := make([][]votes.Vote, 64)
	for i := range batches {
		batches[i] = syntheticBatch(n, batchSize, i)
	}
	// A registered watch notifier must not cost ingest an allocation: the
	// 0-allocs/op gate below now also covers the hub's wakeup hook.
	notify := make(chan struct{}, 1)
	s.AddNotifier(notify)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(batches[i%len(batches)], true); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*batchSize)/b.Elapsed().Seconds(), "votes/s")
}

// benchGateSource adapts the engine session to hub.Session for the gated
// ingest benchmark (the same few-line adapter dqm-serve uses).
type benchGateSource struct{ s *Session }

func (g benchGateSource) Version() uint64               { return g.s.Version() }
func (g benchGateSource) Notify(ch chan<- struct{})     { g.s.AddNotifier(ch) }
func (g benchGateSource) StopNotify(ch chan<- struct{}) { g.s.RemoveNotifier(ch) }

func (g benchGateSource) Inputs(need policy.Needs) (policy.Inputs, error) {
	in := policy.Inputs{Version: g.s.Version()}
	est := g.s.Estimates()
	if r := est.Switch.Total - est.Voting; r > 0 {
		in.Remaining = r
	}
	in.SwitchTotal = est.Switch.Total
	in.Tasks = g.s.Tasks()
	in.Votes = g.s.TotalVotes()
	return in, nil
}

// BenchmarkSessionIngestGated is BenchmarkSessionIngest with a quality gate
// attached the way dqm-serve attaches it: through internal/hub, whose
// per-session pump rides the session's notifier and re-evaluates the gate
// (rate-limited) while ingest runs. The pinned contract is that alerting
// costs the ingest hot path nothing — still 0 allocs/op — because the gate's
// work happens on the pump goroutine off a non-blocking cap-1 wakeup, and
// GateMinInterval coalesces per-batch notifications so evaluation (and its
// one JSON encode) amortizes to noise against millions of appends.
func BenchmarkSessionIngestGated(b *testing.B) {
	const n, batchSize = 10000, 10
	s := NewSession("bench", n, SessionConfig{})
	p := &policy.Policy{Rules: []policy.Rule{
		{Name: "remaining-errors", Metric: policy.MetricRemaining, Op: ">", Value: 1e12},
	}}
	if err := p.Validate(); err != nil {
		b.Fatal(err)
	}
	h := hub.New(hub.Config{
		Resolve: func(string) (hub.Session, bool) { return benchGateSource{s}, true },
		// Nothing reads estimates here, so no frame is encoded.
		Encode:          func(hub.Session, hub.View) ([]byte, uint64, error) { return nil, 0, nil },
		GateMinInterval: time.Millisecond,
	})
	defer h.Close()
	if _, ok := h.AttachGate("bench", p); !ok {
		b.Fatal("attach gate")
	}
	batches := make([][]votes.Vote, 64)
	for i := range batches {
		batches[i] = syntheticBatch(n, batchSize, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(batches[i%len(batches)], true); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*batchSize)/b.Elapsed().Seconds(), "votes/s")
}

// BenchmarkSessionIngestAndEstimate interleaves ingest with estimate reads,
// the serving hot path (append a task, read the metric).
func BenchmarkSessionIngestAndEstimate(b *testing.B) {
	const n, batchSize = 10000, 10
	s := NewSession("bench", n, SessionConfig{})
	batches := make([][]votes.Vote, 64)
	for i := range batches {
		batches[i] = syntheticBatch(n, batchSize, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(batches[i%len(batches)], true); err != nil {
			b.Fatal(err)
		}
		s.Estimates()
	}
}

// BenchmarkEngineParallelIngest measures aggregate throughput with one
// session per worker goroutine — the many-concurrent-datasets shape
// dqm-serve is built for.
func BenchmarkEngineParallelIngest(b *testing.B) {
	const n, batchSize = 10000, 10
	e := New(Config{Shards: 32})
	var sessionID atomic.Int64
	batches := make([][]votes.Vote, 64)
	for i := range batches {
		batches[i] = syntheticBatch(n, batchSize, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := fmt.Sprintf("bench-%d", sessionID.Add(1))
		s, err := e.Create(id, n, SessionConfig{})
		if err != nil {
			b.Error(err)
			return
		}
		i := 0
		for pb.Next() {
			if err := s.Append(batches[i%len(batches)], true); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
	b.ReportMetric(float64(b.N*batchSize)/b.Elapsed().Seconds(), "votes/s")
}

// BenchmarkEstimatesCached measures the estimate read path: "cold" is a task
// appended and then read (the append publishes the estimates the read
// copies), "idle-recompute" one evaluation of the suite, "cached" a lock-free
// slot read of an unchanged session, and "parallel" the many-readers shape of
// dashboard fan-out.
func BenchmarkEstimatesCached(b *testing.B) {
	// 2M votes over 10k items: the switch/fingerprint state a recompute has
	// to walk is what makes the old read path O(state).
	const n, preTasks = 10000, 200000
	s := NewSession("bench", n, SessionConfig{})
	for i := 0; i < preTasks; i++ {
		if err := s.Append(syntheticBatch(n, 10, i), true); err != nil {
			b.Fatal(err)
		}
	}
	// "cold" is the polling-while-cleaning regime: the session saw a task
	// boundary since the last read. The append evaluates every estimator and
	// publishes them to the slot, which the read then copies.
	batches := make([][]votes.Vote, 64)
	for i := range batches {
		batches[i] = syntheticBatch(n, 10, i)
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := s.Append(batches[i%len(batches)], true); err != nil {
				b.Fatal(err)
			}
			s.Estimates()
		}
	})
	// "idle-recompute" is one evaluation of the suite, the cost a publishing
	// mutation and a read under the session mutex add.
	b.Run("idle-recompute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.suite.EstimateAll()
		}
	})
	b.Run("cached", func(b *testing.B) {
		s.Estimates() // publish the slot once
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Estimates()
		}
	})
	b.Run("parallel", func(b *testing.B) {
		s.Estimates()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				s.Estimates()
			}
		})
	})
}

// BenchmarkEstimatesDirty measures the dirty-read path: every read follows a
// single-vote mutation, which evaluates the estimates from the running
// sufficient statistics and publishes them to the slot the read copies.
// Gated at 0 allocs/op.
func BenchmarkEstimatesDirty(b *testing.B) {
	const n, preTasks = 10000, 200000
	s := NewSession("bench", n, SessionConfig{})
	for i := 0; i < preTasks; i++ {
		if err := s.Append(syntheticBatch(n, 10, i), true); err != nil {
			b.Fatal(err)
		}
	}
	s.Estimates()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Record(i%n, i%25, i%3 == 0); err != nil {
			b.Fatal(err)
		}
		s.Estimates()
	}
}

// BenchmarkBootstrapCI measures one bootstrap interval over a captured state:
// "serial" on one goroutine, "parallel" over the default worker pool. The
// intervals are bit-identical (pinned by TestBootstrapParallelDeterminism);
// only the wall clock differs.
func BenchmarkBootstrapCI(b *testing.B) {
	const n, preTasks = 10000, 20000
	s := NewSession("bench", n, SessionConfig{
		Suite: estimator.SuiteConfig{
			Switch: estimator.SwitchConfig{RetainLedgers: true},
		},
	})
	for i := 0; i < preTasks; i++ {
		if err := s.Append(syntheticBatch(n, 10, i), true); err != nil {
			b.Fatal(err)
		}
	}
	st, err := s.suite.Switch.CaptureBootstrap()
	if err != nil {
		b.Fatal(err)
	}
	defer st.Release()
	run := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := st.Bootstrap(200, 0.95, xrand.New(uint64(i)), workers); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("serial", run(1))
	b.Run("parallel", run(0))
}

// BenchmarkWindowedEstimates measures the windowed dirty-read path: every
// read follows an appended task and evaluates the panes' suites under the
// session mutex.
func BenchmarkWindowedEstimates(b *testing.B) {
	const n, batchSize = 10000, 10
	wcfg := window.Config{Size: 100, Stride: 50, DecayAlpha: 0.3}
	s := NewSession("bench", n, SessionConfig{
		Window: &wcfg,
	})
	batches := make([][]votes.Vote, 64)
	for i := range batches {
		batches[i] = syntheticBatch(n, batchSize, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(batches[i%len(batches)], true); err != nil {
			b.Fatal(err)
		}
		if _, err := s.WindowEstimates(window.KindCurrent); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindowedIngest measures the ingest-cost multiplier of windowed
// estimation (every vote feeds every open pane).
func BenchmarkWindowedIngest(b *testing.B) {
	const n, batchSize = 10000, 10
	wcfg := window.Config{Size: 100, Stride: 50, DecayAlpha: 0.3}
	s := NewSession("bench", n, SessionConfig{
		Window: &wcfg,
	})
	batches := make([][]votes.Vote, 64)
	for i := range batches {
		batches[i] = syntheticBatch(n, batchSize, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(batches[i%len(batches)], true); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*batchSize)/b.Elapsed().Seconds(), "votes/s")
}

// BenchmarkColumnarIngest measures binary (DQMV) columnar ingest through
// AppendColumns — the wire bytes decoded once into reused columns, which are
// journaled as one block record. Compare "memory" against
// BenchmarkSessionIngest (the same 10-vote tasks through the Entry path) for
// the re-encode savings, and "durable" against
// BenchmarkSessionIngestDurable/batch.
func BenchmarkColumnarIngest(b *testing.B) {
	const n, batchSize = 10000, 10
	raws := make([][]byte, 64)
	for r := range raws {
		batch := syntheticBatch(n, batchSize, r)
		for _, v := range batch {
			raws[r] = votelog.AppendBinaryVote(raws[r], int32(v.Item), int32(v.Worker), v.Label == votes.Dirty)
		}
	}
	run := func(b *testing.B, s *Session) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.AppendColumns(raws[i%len(raws)], true); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*batchSize)/b.Elapsed().Seconds(), "votes/s")
	}
	b.Run("memory", func(b *testing.B) {
		run(b, NewSession("bench", n, SessionConfig{}))
	})
	b.Run("durable", func(b *testing.B) {
		e, err := Open(Config{DataDir: b.TempDir(), WAL: wal.Options{Fsync: wal.FsyncBatch}})
		if err != nil {
			b.Fatal(err)
		}
		defer e.Close()
		s, err := e.Create("bench", n, SessionConfig{})
		if err != nil {
			b.Fatal(err)
		}
		run(b, s)
	})
}

// BenchmarkAppendLog measures bulk binary ingest of one pre-split
// 150-task × 20-vote log per op through AppendLog: in memory, and durable
// under each fsync policy, where every op stages 150 frames and commits once
// (under "always", one group-commit wait per op).
func BenchmarkAppendLog(b *testing.B) {
	const n, tasks, perTask = 5000, 150, 20
	blocks := make([]votelog.TaskBlock, tasks)
	for i := range blocks {
		for _, v := range syntheticBatch(n, perTask, i) {
			blocks[i].Raw = votelog.AppendBinaryVote(blocks[i].Raw, int32(v.Item), int32(v.Worker), v.Label == votes.Dirty)
		}
		blocks[i].Task, blocks[i].Votes = int32(i), perTask
	}
	run := func(b *testing.B, s *Session) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.AppendLog(blocks); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*tasks*perTask)/b.Elapsed().Seconds(), "votes/s")
	}
	b.Run("memory", func(b *testing.B) {
		run(b, NewSession("bench", n, SessionConfig{}))
	})
	for _, p := range []wal.FsyncPolicy{wal.FsyncNever, wal.FsyncBatch, wal.FsyncAlways} {
		b.Run("durable/"+p.String(), func(b *testing.B) {
			e, err := Open(Config{DataDir: b.TempDir(), WAL: wal.Options{Fsync: p}})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			s, err := e.Create("bench", n, SessionConfig{})
			if err != nil {
				b.Fatal(err)
			}
			run(b, s)
		})
	}
}

// BenchmarkSessionIngestDurable is BenchmarkSessionIngest with a write-ahead
// journal under each fsync policy — the apples-to-apples cost of durability
// on the ingest hot path (BENCHMARKS.md records the ratios).
func BenchmarkSessionIngestDurable(b *testing.B) {
	const n, batchSize = 10000, 10
	for _, p := range []wal.FsyncPolicy{wal.FsyncNever, wal.FsyncBatch, wal.FsyncAlways} {
		b.Run(p.String(), func(b *testing.B) {
			e, err := Open(Config{DataDir: b.TempDir(), WAL: wal.Options{Fsync: p}})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			s, err := e.Create("bench", n, SessionConfig{})
			if err != nil {
				b.Fatal(err)
			}
			batches := make([][]votes.Vote, 64)
			for i := range batches {
				batches[i] = syntheticBatch(n, batchSize, i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Append(batches[i%len(batches)], true); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*batchSize)/b.Elapsed().Seconds(), "votes/s")
		})
	}
}

// BenchmarkRecovery measures the recovery plane. "boot/serial" and
// "boot/parallel" replay a 64-session data dir through Open with
// RecoveryParallelism 1 and GOMAXPROCS respectively (on multi-core hardware
// the parallel ratio is the tentpole number; on one core they coincide).
// "coldload" is the on-demand path: one evicted session replayed per op
// through Load under the per-id singleflight.
func BenchmarkRecovery(b *testing.B) {
	const (
		nSessions = 64
		n         = 1000
		tasks     = 100
		batchSize = 10
	)
	dir := b.TempDir()
	walOpts := wal.Options{Fsync: wal.FsyncNever}
	e, err := Open(Config{DataDir: dir, WAL: walOpts})
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]string, nSessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-%03d", i)
		s, err := e.Create(ids[i], n, SessionConfig{})
		if err != nil {
			b.Fatal(err)
		}
		for t := 0; t < tasks; t++ {
			if err := s.Append(syntheticBatch(n, batchSize, t), true); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := e.Close(); err != nil {
		b.Fatal(err)
	}

	boot := func(b *testing.B, workers int) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e, err := Open(Config{DataDir: dir, WAL: walOpts, RecoveryParallelism: workers})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if e.Len() != nSessions {
				b.Fatalf("boot recovered %d sessions, want %d", e.Len(), nSessions)
			}
			if err := e.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(nSessions)*float64(b.N)/b.Elapsed().Seconds(), "sessions/s")
		b.ReportMetric(float64(nSessions*tasks*batchSize)*float64(b.N)/b.Elapsed().Seconds(), "votes/s")
	}
	b.Run("boot/serial", func(b *testing.B) { boot(b, 1) })
	b.Run("boot/parallel", func(b *testing.B) { boot(b, 0) })

	b.Run("coldload", func(b *testing.B) {
		// MaxSessions=1: every Load evicts the previous session, so each op is
		// one full journal replay through the singleflight path.
		e, err := Open(Config{DataDir: dir, WAL: walOpts, MaxSessions: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer e.Close()
		// Displace whatever boot recovered so the first timed Load is cold too
		// (the loop never asks for the id it just loaded).
		if _, err := e.Load(ids[len(ids)-1]); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Load(ids[i%len(ids)]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(tasks*batchSize)*float64(b.N)/b.Elapsed().Seconds(), "votes/s")
	})
}
