package engine

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"dqm/internal/crowd"
	"dqm/internal/dataset"
	"dqm/internal/estimator"
	"dqm/internal/votes"
)

// simTasks produces a deterministic simulated vote stream.
func simTasks(t *testing.T, n, nTasks int, seed uint64) (*dataset.Population, []crowd.Task) {
	t.Helper()
	pop := dataset.NewPlantedPopulation(n, n/10, seed, "engine-test")
	sim := crowd.NewSimulator(crowd.Config{
		Truth:        pop.Truth.IsDirty,
		N:            pop.N(),
		Profile:      crowd.Profile{FPRate: 0.01, FNRate: 0.1},
		ItemsPerTask: 10,
		Seed:         seed,
	})
	return pop, sim.Tasks(nTasks)
}

func feedSession(s *Session, tasks []crowd.Task) error {
	var buf []votes.Vote
	for _, task := range tasks {
		buf = task.AppendVotes(buf[:0])
		if err := s.Append(buf, true); err != nil {
			return err
		}
	}
	return nil
}

func TestEngineCreateGetDelete(t *testing.T) {
	e := New(Config{})
	if _, err := e.Create("", 10, SessionConfig{}); err == nil {
		t.Fatal("Create accepted an empty id")
	}
	if _, err := e.Create("a", 0, SessionConfig{}); err == nil {
		t.Fatal("Create accepted population 0")
	}
	s, err := e.Create("a", 10, SessionConfig{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := e.Create("a", 10, SessionConfig{}); err == nil {
		t.Fatal("Create accepted a duplicate id")
	}
	got, ok := e.Get("a")
	if !ok || got != s {
		t.Fatalf("Get returned %v, %v", got, ok)
	}
	if e.Len() != 1 {
		t.Fatalf("Len = %d, want 1", e.Len())
	}
	if ids := e.IDs(); !reflect.DeepEqual(ids, []string{"a"}) {
		t.Fatalf("IDs = %v", ids)
	}
	if !e.Delete("a") || e.Delete("a") {
		t.Fatal("Delete bookkeeping wrong")
	}
	if e.Len() != 0 {
		t.Fatalf("Len after delete = %d, want 0", e.Len())
	}
}

func TestEngineEvictsLRU(t *testing.T) {
	e := New(Config{MaxSessions: 2})
	a, _ := e.Create("a", 5, SessionConfig{})
	if _, err := e.Create("b", 5, SessionConfig{}); err != nil {
		t.Fatal(err)
	}
	// Touch a so b becomes the LRU.
	a.Record(0, 0, true)
	if _, err := e.Create("c", 5, SessionConfig{}); err != nil {
		t.Fatalf("Create with eviction: %v", err)
	}
	if _, ok := e.Get("b"); ok {
		t.Fatal("LRU session b survived eviction")
	}
	if _, ok := e.Get("a"); !ok {
		t.Fatal("recently used session a was evicted")
	}
	if e.Len() != 2 || e.Evictions() != 1 {
		t.Fatalf("Len = %d, Evictions = %d; want 2, 1", e.Len(), e.Evictions())
	}
}

func TestCreateDuplicateAtCapacityDoesNotEvict(t *testing.T) {
	e := New(Config{MaxSessions: 2})
	if _, err := e.Create("a", 5, SessionConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Create("b", 5, SessionConfig{}); err != nil {
		t.Fatal(err)
	}
	// A retried create of an existing id at capacity must fail without
	// costing any live session its state.
	if _, err := e.Create("a", 5, SessionConfig{}); err == nil {
		t.Fatal("duplicate create accepted")
	}
	if e.Len() != 2 || e.Evictions() != 0 {
		t.Fatalf("duplicate create disturbed the engine: Len=%d Evictions=%d", e.Len(), e.Evictions())
	}
	for _, id := range []string{"a", "b"} {
		if _, ok := e.Get(id); !ok {
			t.Fatalf("session %s lost to a failed duplicate create", id)
		}
	}
}

func TestOnEvictCallback(t *testing.T) {
	var evicted []string
	e := New(Config{MaxSessions: 1, OnEvict: func(id string) { evicted = append(evicted, id) }})
	if _, err := e.Create("a", 5, SessionConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Create("b", 5, SessionConfig{}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(evicted, []string{"a"}) {
		t.Fatalf("OnEvict calls = %v, want [a]", evicted)
	}
	// Explicit deletes are not evictions and must not fire the hook.
	e.Delete("b")
	if !reflect.DeepEqual(evicted, []string{"a"}) {
		t.Fatalf("Delete fired OnEvict: %v", evicted)
	}
}

func TestAppendValidatesBatch(t *testing.T) {
	s := NewSession("s", 3, SessionConfig{})
	batch := []votes.Vote{
		{Item: 0, Worker: 0, Label: votes.Dirty},
		{Item: 7, Worker: 0, Label: votes.Dirty}, // out of range
	}
	if err := s.Append(batch, true); err == nil {
		t.Fatal("Append accepted an out-of-range item")
	}
	// Rejection must be atomic: nothing from the batch was applied.
	if s.TotalVotes() != 0 || s.Tasks() != 0 {
		t.Fatalf("rejected batch partially applied: votes=%d tasks=%d", s.TotalVotes(), s.Tasks())
	}
}

// TestConcurrentSessionsMatchSequential is the determinism acceptance
// criterion: sessions ingesting concurrently (one goroutine each, plus
// estimate readers in flight) yield exactly the estimates of sequential
// ingest through a bare suite.
func TestConcurrentSessionsMatchSequential(t *testing.T) {
	const nSessions = 8
	pop, tasks := simTasks(t, 300, 120, 42)

	// Reference: sequential replay through a bare estimator suite.
	ref := estimator.NewSuite(pop.N(), estimator.SuiteConfig{})
	var buf []votes.Vote
	for _, task := range tasks {
		buf = task.AppendVotes(buf[:0])
		ref.ObserveTask(buf)
	}
	want := ref.EstimateAll()

	e := New(Config{})
	var wg sync.WaitGroup
	errs := make(chan error, nSessions)
	for i := 0; i < nSessions; i++ {
		s, err := e.Create(fmt.Sprintf("sess-%d", i), pop.N(), SessionConfig{})
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			var buf []votes.Vote
			for ti, task := range tasks {
				buf = task.AppendVotes(buf[:0])
				if err := s.Append(buf, true); err != nil {
					errs <- err
					return
				}
				if ti%10 == 0 {
					s.Estimates() // interleaved reads must not perturb the stream
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, id := range e.IDs() {
		s, _ := e.Get(id)
		if got := s.Estimates(); !reflect.DeepEqual(got, want) {
			t.Fatalf("session %s estimates %+v != sequential %+v", id, got, want)
		}
		if got, want := s.Tasks(), int64(len(tasks)); got != want {
			t.Fatalf("session %s tasks = %d, want %d", id, got, want)
		}
	}
}

// TestWorkersFollowSnapshotAndReset: the session's distinct-worker count
// counts each worker once, however sparse its id, and Reset clears it.
func TestWorkersFollowSnapshotAndReset(t *testing.T) {
	s := NewSession("workers", 10, SessionConfig{})
	record := func(workers ...int) {
		for _, w := range workers {
			if err := s.Record(0, w, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(what string, want int) {
		t.Helper()
		if got := s.NumWorkers(); got != want {
			t.Fatalf("NumWorkers %s = %d, want %d", what, got, want)
		}
	}
	record(1, -4, 1)
	check("after two workers", 2)
	record(1<<40, 2)
	check("after four workers", 4)
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	check("after reset", 0)
}

// TestSessionCIs exercises the bootstrap CI paths through the session.
func TestSessionCIs(t *testing.T) {
	pop, tasks := simTasks(t, 200, 80, 11)
	s := NewSession("s", pop.N(), SessionConfig{
		Suite: estimator.SuiteConfig{Switch: estimator.SwitchConfig{RetainLedgers: true}},
	})
	if err := feedSession(s, tasks); err != nil {
		t.Fatal(err)
	}
	ci, err := s.SwitchCI(50, 0.9)
	if err != nil {
		t.Fatalf("SwitchCI: %v", err)
	}
	if ci.Lo > ci.Hi {
		t.Fatalf("inverted CI: %+v", ci)
	}
	ci2, err := s.SwitchCI(50, 0.9)
	if err != nil || ci != ci2 {
		t.Fatalf("SwitchCI not deterministic: %+v vs %+v (%v)", ci, ci2, err)
	}
	if _, err := s.Chao92CI(50, 0.9); err != nil {
		t.Fatalf("Chao92CI: %v", err)
	}
	// Without the SWITCH member, SwitchCI must fail cleanly.
	noSwitch := NewSession("ns", 10, SessionConfig{
		Suite: estimator.SuiteConfig{Estimators: []string{estimator.NameVoting}},
	})
	if _, err := noSwitch.SwitchCI(50, 0.9); err == nil {
		t.Fatal("SwitchCI without SWITCH member did not fail")
	}
}

// TestEngineConcurrentChurn hammers create/ingest/delete from many
// goroutines; run with -race.
func TestEngineConcurrentChurn(t *testing.T) {
	e := New(Config{MaxSessions: 32})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				id := fmt.Sprintf("g%d-s%d", g, i)
				s, err := e.Create(id, 50, SessionConfig{})
				if err != nil {
					t.Errorf("Create(%s): %v", id, err)
					return
				}
				for v := 0; v < 25; v++ {
					s.Record(v%50, v%5, v%3 == 0)
				}
				s.EndTask()
				s.Estimates()
				if i%4 == 3 {
					e.Delete(id)
				}
			}
		}(g)
	}
	wg.Wait()
	if e.Len() > 32 {
		t.Fatalf("Len = %d exceeds MaxSessions", e.Len())
	}
}
