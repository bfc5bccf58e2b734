package dqm

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestEngineSessionLifecycle(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	sess, err := eng.CreateSession("ds-1", 10, Defaults())
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if sess.ID() != "ds-1" || sess.NumItems() != 10 {
		t.Fatalf("session identity wrong: %q n=%d", sess.ID(), sess.NumItems())
	}
	if _, err := eng.CreateSession("ds-1", 10, Defaults()); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if _, err := eng.CreateSession("ds-2", 10, Config{Estimators: []string{"NOPE"}}); err == nil {
		t.Fatal("unknown estimator name accepted")
	}
	got, ok := eng.Session("ds-1")
	if !ok || got.ID() != "ds-1" {
		t.Fatal("Session lookup failed")
	}
	if ids := eng.SessionIDs(); !reflect.DeepEqual(ids, []string{"ds-1"}) {
		t.Fatalf("SessionIDs = %v", ids)
	}
	if !eng.DeleteSession("ds-1") || eng.NumSessions() != 0 {
		t.Fatal("DeleteSession bookkeeping wrong")
	}
}

// TestSessionMatchesRecorder pins the compat contract: a session fed the
// same votes as a Recorder reports identical estimates (the Recorder IS one
// session).
func TestSessionMatchesRecorder(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	sess, err := eng.CreateSession("ds", 50, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(50, Defaults())
	for task := 0; task < 30; task++ {
		var batch []Vote
		for i := 0; i < 8; i++ {
			v := Vote{Item: (task*3 + i) % 50, Worker: task % 7, Dirty: (task+i)%4 != 0}
			batch = append(batch, v)
			rec.RecordVote(v)
		}
		rec.EndTask()
		if err := sess.AppendVotes(batch, true); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := sess.Estimates(), rec.Estimates(); !reflect.DeepEqual(got, want) {
		t.Fatalf("session %+v != recorder %+v", got, want)
	}
	if sess.Tasks() != 30 || sess.TotalVotes() != rec.TotalVotes() {
		t.Fatalf("stream counters diverged: tasks=%d votes=%d vs %d", sess.Tasks(), sess.TotalVotes(), rec.TotalVotes())
	}
}

func TestSessionAppendValidates(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	sess, err := eng.CreateSession("ds", 5, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.AppendVotes([]Vote{{Item: 9, Worker: 0, Dirty: true}}, true); err == nil {
		t.Fatal("out-of-range item accepted")
	}
	if sess.TotalVotes() != 0 {
		t.Fatal("rejected batch partially applied")
	}
}

func TestSessionEstimatorSelection(t *testing.T) {
	eng := NewEngine(EngineConfig{})
	cfg := Defaults()
	cfg.Estimators = []string{"VOTING", "SWITCH"}
	sess, err := eng.CreateSession("ds", 10, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.EstimatorNames(); !reflect.DeepEqual(got, cfg.Estimators) {
		t.Fatalf("EstimatorNames = %v, want %v", got, cfg.Estimators)
	}
	batch := make([]Vote, 10)
	for i := range batch {
		batch[i] = Vote{Item: i % 5, Worker: i, Dirty: true}
	}
	if err := sess.AppendVotes(batch, true); err != nil {
		t.Fatal(err)
	}
	e := sess.Estimates()
	if e.Voting == 0 || e.Switch.Total == 0 {
		t.Fatalf("selected estimators missing: %+v", e)
	}
	if e.Chao92 != 0 || e.Nominal != 0 {
		t.Fatalf("unselected estimators computed: %+v", e)
	}
}

func TestEstimatorNamesIncludesStandardSuite(t *testing.T) {
	names := EstimatorNames()
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	for _, want := range []string{"NOMINAL", "VOTING", "CHAO92", "V-CHAO", "SWITCH"} {
		if !set[want] {
			t.Errorf("EstimatorNames missing %q (got %v)", want, names)
		}
	}
}

// TestEngineConcurrentSessions checks cross-session isolation under
// concurrency: every session sees exactly its own stream.
func TestEngineConcurrentSessions(t *testing.T) {
	eng := NewEngine(EngineConfig{Shards: 8})
	const nSessions = 6
	var wg sync.WaitGroup
	for g := 0; g < nSessions; g++ {
		sess, err := eng.CreateSession(fmt.Sprintf("ds-%d", g), 30, Defaults())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(sess *Session, g int) {
			defer wg.Done()
			for task := 0; task < 20; task++ {
				var batch []Vote
				for i := 0; i <= g; i++ { // session g ingests g+1 votes/task
					batch = append(batch, Vote{Item: (task + i) % 30, Worker: task, Dirty: true})
				}
				if err := sess.AppendVotes(batch, true); err != nil {
					t.Error(err)
					return
				}
				sess.Estimates()
			}
		}(sess, g)
	}
	wg.Wait()
	for g := 0; g < nSessions; g++ {
		sess, ok := eng.Session(fmt.Sprintf("ds-%d", g))
		if !ok {
			t.Fatalf("session ds-%d vanished", g)
		}
		if got, want := sess.TotalVotes(), int64(20*(g+1)); got != want {
			t.Fatalf("session ds-%d votes = %d, want %d", g, got, want)
		}
	}
}

// ingestDeterministic streams a reproducible vote pattern into a session.
func ingestDeterministic(t *testing.T, s *Session, tasks int) {
	t.Helper()
	for task := 0; task < tasks; task++ {
		batch := make([]Vote, 0, 6)
		for k := 0; k < 6; k++ {
			item := (task*7 + k*3) % s.NumItems()
			batch = append(batch, Vote{Item: item, Worker: k, Dirty: (task+k*item)%3 == 0})
		}
		if err := s.AppendVotes(batch, true); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOpenEngineRecoversBitIdentical(t *testing.T) {
	dir := t.TempDir()
	eng, err := OpenEngine(dir, EngineConfig{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Durable() {
		t.Fatal("OpenEngine produced a non-durable engine")
	}
	cfg := Defaults()
	cfg.TrackConfidence = true
	s, err := eng.CreateSession("orders", 40, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestDeterministic(t, s, 60)
	want := s.Estimates()
	wantCI, err := s.SwitchCI(100, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng2, err := OpenEngine(dir, EngineConfig{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	s2, ok := eng2.Session("orders")
	if !ok {
		t.Fatal("session not recovered")
	}
	if got := s2.Estimates(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered estimates differ:\n got %+v\nwant %+v", got, want)
	}
	// Config survived too: the CI machinery needs TrackConfidence and the
	// deterministic bootstrap seed, so identical intervals prove both.
	gotCI, err := s2.SwitchCI(100, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if gotCI != wantCI {
		t.Fatalf("recovered CI %+v != %+v", gotCI, wantCI)
	}
	// In-memory reference: journaling must not change estimator semantics.
	ref := NewRecorder(40, cfg)
	ingestDeterministic(t, &ref.Session, 60)
	if got := ref.Estimates(); !reflect.DeepEqual(got, want) {
		t.Fatalf("durable ingest diverged from in-memory recorder")
	}
}

func TestDurableDeleteAndRecreate(t *testing.T) {
	dir := t.TempDir()
	eng, err := OpenEngine(dir, EngineConfig{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.CreateSession("tmp", 10, Defaults()); err != nil {
		t.Fatal(err)
	}
	if !eng.DeleteSession("tmp") {
		t.Fatal("delete failed")
	}
	if _, err := eng.CreateSession("tmp", 10, Defaults()); err != nil {
		t.Fatalf("recreate after delete: %v", err)
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}
