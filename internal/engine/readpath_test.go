package engine

import (
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dqm/internal/estimator"
	"dqm/internal/votes"
	"dqm/internal/window"
)

// TestEstimatesCacheTracksMutations: the lock-free slot must serve exactly
// the evaluated value at every version, and never a stale snapshot after a
// mutation.
func TestEstimatesCacheTracksMutations(t *testing.T) {
	const n = 50
	s := NewSession("cache", n, sessionCfg())
	ops := genOps(77, 120, n)
	for i, o := range ops {
		if o.reset {
			s.Reset()
		} else if err := s.Append(o.batch, o.end); err != nil {
			t.Fatal(err)
		}
		got := s.Estimates()
		// Second read comes from the lock-free slot; must be identical.
		if again := s.Estimates(); !reflect.DeepEqual(again, got) {
			t.Fatalf("op %d: slot read differs from first read", i)
		}
		if v, cv := s.Version(), s.CachedVersion(); v != cv {
			t.Fatalf("op %d: slot not published (version %d, slot %d)", i, v, cv)
		}
	}
	// Reference: a fresh session over the same ops recomputes everything.
	ref := NewSession("", n, sessionCfg())
	applyOps(t, ref, ops)
	if !reflect.DeepEqual(ref.Estimates(), s.Estimates()) {
		t.Fatal("cached session diverges from uncached replay")
	}
}

// TestEstimatesRacingWriterMatchReference is the property behind the
// lock-free read: while one writer applies random votes, task boundaries and
// resets, every Estimates result must equal EstimateAll of a reference
// session at some version between the Version reads before and after the
// call. A read after more than publishWindow unread mutations, which finds
// the slot stale, must match the reference too.
func TestEstimatesRacingWriterMatchReference(t *testing.T) {
	const n, readers = 40, 3
	ops := genOps(31, 4000, n)
	for i := range ops {
		if i%9 == 4 && !ops[i].reset {
			ops[i] = walOp{end: true} // a bare task boundary
		}
	}
	// want[v] is the reference's estimates at version v.
	ref := NewSession("ref", n, sessionCfg())
	want := []estimator.Estimates{ref.suite.EstimateAll()}
	for _, o := range ops {
		applyOps(t, ref, []walOp{o})
		want = append(want, ref.suite.EstimateAll())
	}

	s := NewSession("race", n, sessionCfg())
	var (
		done  atomic.Bool
		reads atomic.Int64
		wg    sync.WaitGroup
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				before := s.Version()
				got := s.Estimates()
				after := s.Version()
				if !slices.Contains(want[before:after+1], got) {
					t.Errorf("Estimates %+v matches the reference at no version in [%d, %d]", got, before, after)
					return
				}
				reads.Add(1)
			}
		}()
	}
	for reads.Load() < readers {
		time.Sleep(time.Millisecond)
	}
	applyOps(t, s, ops)
	done.Store(true)
	wg.Wait()

	more := genOps(32, 2*publishWindow, n)
	applyOps(t, s, more)
	applyOps(t, ref, more)
	if got, want := s.Estimates(), ref.suite.EstimateAll(); got != want {
		t.Fatalf("after %d unread mutations: Estimates %+v, reference %+v", len(more), got, want)
	}
}

// TestSlotCarriesEveryEstimate: the slot's words must carry every field of
// estimator.Estimates, so a field added there cannot be dropped silently.
func TestSlotCarriesEveryEstimate(t *testing.T) {
	var want estimator.Estimates
	k := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			k++
			switch f := v.Field(i); f.Kind() {
			case reflect.Struct:
				fill(f)
			case reflect.Float64:
				f.SetFloat(float64(k) + 0.5)
			case reflect.Int:
				f.SetInt(int64(-k))
			default:
				t.Fatalf("field %s (%v) has no slot word", v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	fill(reflect.ValueOf(&want).Elem())
	var sl estimateSlot
	sl.store(7, &want)
	var got estimator.Estimates
	if v, ok := sl.load(&got); !ok || v != 7 || got != want {
		t.Fatalf("slot load = %+v at %d (%v), want %+v at 7", got, v, ok, want)
	}
}

// TestVersionAdvancesOnEveryMutation: version is the watch/staleness signal,
// so every mutating entry point must move it exactly once per call.
func TestVersionAdvancesOnEveryMutation(t *testing.T) {
	s := NewSession("v", 10, SessionConfig{})
	if s.Version() != 0 {
		t.Fatalf("fresh session version = %d", s.Version())
	}
	s.Record(1, 0, true)
	s.EndTask()
	if err := s.Append([]votes.Vote{{Item: 2, Worker: 1, Label: votes.Dirty}}, true); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if got := s.Version(); got != 4 {
		t.Fatalf("version after 4 mutations = %d", got)
	}
	// Reads do not mutate.
	s.Estimates()
	s.Estimates()
	if got := s.Version(); got != 4 {
		t.Fatalf("reads moved the version to %d", got)
	}
}

// TestEstimatesDoNotBlockIngest is the read/ingest isolation regression test:
// pollers hammering Estimates must ride the lock-free cache instead of
// serializing O(state) recomputes against the session mutex, so ingest
// throughput must not collapse while readers poll. Run under -race in CI.
func TestEstimatesDoNotBlockIngest(t *testing.T) {
	const n, batches = 10000, 20000
	mkSession := func() *Session {
		s := NewSession("iso", n, SessionConfig{})
		for i := 0; i < 50; i++ {
			if err := s.Append(syntheticBatch(n, 10, i), true); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	prebuilt := make([][]votes.Vote, 64)
	for i := range prebuilt {
		prebuilt[i] = syntheticBatch(n, 10, i)
	}
	ingest := func(s *Session) time.Duration {
		start := time.Now()
		for i := 0; i < batches; i++ {
			if err := s.Append(prebuilt[i%len(prebuilt)], true); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}

	baseline := ingest(mkSession())

	s := mkSession()
	stop := make(chan struct{})
	var reads atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s.Estimates()
					reads.Add(1)
				}
			}
		}()
	}
	// Make sure every poller is actually running before timing the contended
	// ingest, or a fast ingest loop could finish before the scheduler starts
	// them.
	for reads.Load() < 4 {
		time.Sleep(time.Millisecond)
	}
	contended := ingest(s)
	close(stop)
	wg.Wait()

	if reads.Load() < 1000 {
		t.Fatalf("readers only completed %d reads; the cache path is not being exercised", reads.Load())
	}
	// Generous bound: with the version-guarded cache the readers barely touch
	// the session mutex, so ingest under read load stays within a small
	// multiple of the uncontended time. Before the cache, four readers each
	// recomputing the full suite under the mutex slowed ingest by orders of
	// magnitude. The factor absorbs scheduler noise and -race overhead.
	if limit := baseline*10 + 200*time.Millisecond; contended > limit {
		t.Fatalf("ingest with readers took %v vs %v alone (limit %v): estimate reads are blocking ingest",
			contended, baseline, limit)
	}
}

// TestWindowedSessionMatchesStandaloneRing: the session's windowed view must
// be exactly a window.Ring fed the same stream.
func TestWindowedSessionMatchesStandaloneRing(t *testing.T) {
	const n = 40
	wcfg := window.Config{Size: 8, Stride: 4, DecayAlpha: 0.4}
	scfg := sessionCfg()
	scfg.Window = &wcfg
	s := NewSession("win", n, scfg)
	ref := window.New(n, scfg.Suite, wcfg)

	ops := genOps(5, 150, n)
	for _, o := range ops {
		if o.reset {
			s.Reset()
			ref.Reset()
			continue
		}
		if err := s.Append(o.batch, o.end); err != nil {
			t.Fatal(err)
		}
		for _, v := range o.batch {
			ref.Observe(v)
		}
		if o.end {
			ref.EndTask()
		}
	}
	for _, k := range []window.Kind{window.KindCurrent, window.KindLast, window.KindDecayed} {
		got, errGot := s.WindowEstimates(k)
		want, errWant := ref.Estimates(k)
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("%v: error mismatch: %v vs %v", k, errGot, errWant)
		}
		if errGot == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: session window diverges from standalone ring", k)
		}
	}
	// Sessions without a window config reject windowed reads.
	plain := NewSession("plain", n, sessionCfg())
	if _, err := plain.WindowEstimates(window.KindCurrent); err == nil {
		t.Fatal("windowless session served a windowed read")
	}
}

// TestCIResultsCachedUntilMutation: repeated CI reads of an unchanged session
// must be identical (they are deterministic) and still correct after the
// stream moves.
func TestCIResultsCachedUntilMutation(t *testing.T) {
	const n = 60
	cfg := SessionConfig{Suite: estimator.SuiteConfig{
		Switch: estimator.SwitchConfig{TrendWindow: 4, RetainLedgers: true},
	}}
	s := NewSession("ci", n, cfg)
	applyOps(t, s, genOps(51, 80, n))

	ci1, err := s.SwitchCI(100, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	ci2, err := s.SwitchCI(100, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if ci1 != ci2 {
		t.Fatalf("cached CI differs: %+v vs %+v", ci1, ci2)
	}
	// A different request shape is its own cache entry.
	wide, err := s.SwitchCI(100, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if wide == ci1 {
		t.Fatal("distinct (replicates, level) returned the same interval object")
	}
	// After a mutation the interval must be recomputed from the new state —
	// compare against a fresh session replaying the full stream.
	if err := s.Append([]votes.Vote{{Item: 1, Worker: 3, Label: votes.Dirty}}, true); err != nil {
		t.Fatal(err)
	}
	ci3, err := s.SwitchCI(100, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewSession("", n, cfg)
	applyOps(t, ref, genOps(51, 80, n))
	if err := ref.Append([]votes.Vote{{Item: 1, Worker: 3, Label: votes.Dirty}}, true); err != nil {
		t.Fatal(err)
	}
	want, err := ref.SwitchCI(100, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if ci3 != want {
		t.Fatalf("post-mutation CI %+v != fresh recompute %+v", ci3, want)
	}

	chao1, err := s.Chao92CI(100, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	chao2, err := s.Chao92CI(100, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if chao1 != chao2 {
		t.Fatal("cached Chao92 CI differs across reads")
	}
}

// TestConcurrentReadersSeeConsistentSnapshots hammers the lock-free read path
// under the race detector: many readers against a mutating session must only
// ever observe values that some clean prefix of the stream could produce
// (spot-checked via the monotonicity of Nominal within this vote pattern).
func TestConcurrentReadersSeeConsistentSnapshots(t *testing.T) {
	const n = 200
	s := NewSession("race", n, SessionConfig{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := -1.0
			for {
				select {
				case <-stop:
					return
				default:
					e := s.Estimates()
					// Only dirty votes are appended below, so Nominal (items
					// with ≥1 dirty vote) never decreases.
					if e.Nominal < last {
						t.Errorf("Nominal went backwards: %v -> %v", last, e.Nominal)
						return
					}
					last = e.Nominal
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		batch := []votes.Vote{{Item: i % n, Worker: i % 7, Label: votes.Dirty}}
		if err := s.Append(batch, i%3 == 0); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// CachedVersion returns the version of the estimates in the slot.
// Version()−CachedVersion() is the staleness of the slot in mutations.
func (s *Session) CachedVersion() uint64 { return s.slot.version.Load() }
