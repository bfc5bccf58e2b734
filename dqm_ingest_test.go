package dqm

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dqm/internal/metrics"
	"dqm/internal/votelog"
)

// dqmvLog encodes entries as a binary DQMV vote log.
func dqmvLog(t *testing.T, entries []votelog.Entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := votelog.WriteBinary(&buf, entries); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSessionJournalFaultReturnsErrors: every mutator on a durable session
// handle whose journal was closed by eviction reports a journal error instead
// of panicking, and leaves the session where it was.
func TestSessionJournalFaultReturnsErrors(t *testing.T) {
	eng, err := OpenEngine(t.TempDir(), EngineConfig{Fsync: FsyncNever, MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sess, err := eng.CreateSession("stale", 5, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	ingestDeterministic(t, sess, 3)
	if _, err := eng.CreateSession("evictor", 5, Defaults()); err != nil {
		t.Fatal(err)
	}
	version, total, tasks := sess.Version(), sess.TotalVotes(), sess.Tasks()
	body := dqmvLog(t, []votelog.Entry{
		{Task: 0, Item: 1, Worker: 0, Dirty: true},
		{Task: 1, Item: 2, Worker: 1},
		{Task: 2, Item: 3, Worker: 0, Dirty: true},
	})
	for _, m := range []struct {
		name string
		call func() error
	}{
		{"AppendVotes", func() error { return sess.AppendVotes([]Vote{{Item: 1, Dirty: true}}, true) }},
		{"AppendDQMV", func() error {
			n, ended, err := sess.AppendDQMV(body)
			if n != 0 || ended != 0 {
				t.Errorf("AppendDQMV on an evicted handle = (%d, %d), want (0, 0)", n, ended)
			}
			return err
		}},
		{"Reset", sess.Reset},
	} {
		if err := m.call(); !IsJournalError(err) {
			t.Errorf("%s on an evicted handle: err = %v, want a journal error", m.name, err)
		}
		if sess.Version() != version || sess.TotalVotes() != total || sess.Tasks() != tasks {
			t.Errorf("%s moved the session: version %d→%d, votes %d→%d, tasks %d→%d", m.name,
				version, sess.Version(), total, sess.TotalVotes(), tasks, sess.Tasks())
		}
	}
}

// TestRecorderRecordPanicsOutOfRange: a Recorder has no journal, so an item
// outside the population is the one failure its void Record can meet, and it
// panics on it without applying anything.
func TestRecorderRecordPanicsOutOfRange(t *testing.T) {
	rec := NewRecorder(5, Defaults())
	defer func() {
		if recover() == nil {
			t.Fatal("Record of item 5 on a 5-item recorder did not panic")
		}
		if rec.TotalVotes() != 0 || rec.Version() != 0 {
			t.Fatalf("rejected vote was applied: votes=%d version=%d", rec.TotalVotes(), rec.Version())
		}
	}()
	rec.Record(5, 0, true)
}

// TestAppendDQMVAtomicPerTask: an out-of-population item in the second task
// of a log rejects that task whole, while the first task stays applied and
// the return values report it.
func TestAppendDQMVAtomicPerTask(t *testing.T) {
	sess, err := NewEngine(EngineConfig{}).CreateSession("dqmv", 5, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	body := dqmvLog(t, []votelog.Entry{
		{Task: 0, Item: 1, Worker: 0, Dirty: true},
		{Task: 1, Item: 2, Worker: 1, Dirty: true},
		{Task: 1, Item: 9, Worker: 1, Dirty: false},
	})
	n, ended, err := sess.AppendDQMV(body)
	if err == nil || !strings.Contains(err.Error(), "outside population") {
		t.Fatalf("err = %v, want an out-of-population error", err)
	}
	if n != 1 || ended != 1 {
		t.Fatalf("AppendDQMV = (%d, %d), want (1, 1)", n, ended)
	}
	if sess.TotalVotes() != 1 || sess.Tasks() != 1 {
		t.Fatalf("session holds %d votes in %d tasks, want the first task only", sess.TotalVotes(), sess.Tasks())
	}
}

// TestAppendDQMVMatchesAppendVotes: a well-formed DQMV log yields exactly the
// estimates of AppendVotes over the same tasks, one boundary per task.
func TestAppendDQMVMatchesAppendVotes(t *testing.T) {
	const n, tasks = 40, 60
	eng := NewEngine(EngineConfig{})
	bin, err := eng.CreateSession("bin", n, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := eng.CreateSession("ref", n, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	var entries []votelog.Entry
	for task := 0; task < tasks; task++ {
		batch := make([]Vote, 1+task%5)
		for k := range batch {
			batch[k] = Vote{Item: (task*7 + k*3) % n, Worker: (task + k) % 9, Dirty: (task+k)%3 == 0}
			entries = append(entries, votelog.Entry{Task: task, Item: batch[k].Item, Worker: batch[k].Worker, Dirty: batch[k].Dirty})
		}
		if err := ref.AppendVotes(batch, true); err != nil {
			t.Fatal(err)
		}
	}
	gotVotes, gotTasks, err := bin.AppendDQMV(dqmvLog(t, entries))
	if err != nil {
		t.Fatal(err)
	}
	if int64(gotVotes) != ref.TotalVotes() || gotTasks != tasks {
		t.Fatalf("AppendDQMV = (%d, %d), want (%d, %d)", gotVotes, gotTasks, ref.TotalVotes(), tasks)
	}
	if got, want := bin.Estimates(), ref.Estimates(); !reflect.DeepEqual(got, want) {
		t.Fatalf("DQMV estimates %+v != AppendVotes estimates %+v", got, want)
	}
}

// TestDurableAppendDQMVOneFsync: under FsyncAlways a 150-task DQMV log is
// journaled as 150 frames and made durable by one fsync — one durability
// wait per request, not one per task.
func TestDurableAppendDQMVOneFsync(t *testing.T) {
	const n, tasks, perTask = 5000, 150, 20
	eng, err := OpenEngine(t.TempDir(), EngineConfig{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sess, err := eng.CreateSession("bulk", n, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]votelog.Entry, 0, tasks*perTask)
	for task := 0; task < tasks; task++ {
		for k := 0; k < perTask; k++ {
			entries = append(entries, votelog.Entry{Task: task, Item: (task*37 + k*11) % n, Worker: task % 25, Dirty: k%7 == 0})
		}
	}
	body := dqmvLog(t, entries)
	counter := func(name string) float64 {
		v, ok := metrics.Default.Value(name)
		if !ok {
			t.Fatalf("metric %s not registered", name)
		}
		return v
	}
	waits := func() uint64 {
		n, _, ok := metrics.Default.HistogramStats("dqm_wal_commit_wait_seconds")
		if !ok {
			t.Fatal("dqm_wal_commit_wait_seconds not registered")
		}
		return n
	}
	fsyncs, frames, waited := counter("dqm_wal_fsyncs_total"), counter("dqm_wal_append_frames_total"), waits()
	if got, ended, err := sess.AppendDQMV(body); err != nil || got != len(entries) || ended != tasks {
		t.Fatalf("AppendDQMV = (%d, %d, %v), want (%d, %d, nil)", got, ended, err, len(entries), tasks)
	}
	if d := counter("dqm_wal_fsyncs_total") - fsyncs; d != 1 {
		t.Errorf("dqm_wal_fsyncs_total moved by %v, want 1", d)
	}
	if d := counter("dqm_wal_append_frames_total") - frames; d != tasks {
		t.Errorf("dqm_wal_append_frames_total moved by %v, want %d", d, tasks)
	}
	if d := waits() - waited; d != 1 {
		t.Errorf("dqm_wal_commit_wait_seconds observed %d waits, want 1", d)
	}
}
