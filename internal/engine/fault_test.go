package engine

import (
	"errors"
	"testing"

	"dqm/internal/votelog"
	"dqm/internal/votes"
	"dqm/internal/wal"
)

// TestJournalFaultNeverPanics: evicting a durable session closes its
// journal, so every mutator on the stale handle meets a journal fault. Each
// must return an error wrapping *JournalError — never panic — and leave the
// session's version, votes and tasks where they were.
func TestJournalFaultNeverPanics(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	cfg.MaxSessions = 1
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	s, err := e.Create("stale", 10, sessionCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]votes.Vote{{Item: 1, Worker: 0, Label: votes.Dirty}}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Create("evictor", 10, sessionCfg()); err != nil {
		t.Fatal(err)
	}
	if _, live := e.Get("stale"); live {
		t.Fatal("stale session was not evicted")
	}
	version, total, tasks := s.Version(), s.TotalVotes(), s.Tasks()
	raw := votelog.AppendBinaryVote(nil, 2, 1, true)
	blocks := []votelog.TaskBlock{{Task: 0, Raw: raw}, {Task: 1, Raw: raw}, {Task: 2, Raw: raw}}
	for _, m := range []struct {
		name string
		call func() error
	}{
		{"Record", func() error { return s.Record(2, 1, true) }},
		{"EndTask", s.EndTask},
		{"Reset", s.Reset},
		{"Append", func() error { return s.Append([]votes.Vote{{Item: 2, Worker: 1}}, true) }},
		{"AppendColumns", func() error { _, err := s.AppendColumns(raw, true); return err }},
		{"AppendLog", func() error {
			n, ended, err := s.AppendLog(blocks)
			if n != 0 || ended != 0 {
				t.Errorf("AppendLog on an evicted handle = (%d, %d), want (0, 0)", n, ended)
			}
			return err
		}},
	} {
		err := m.call()
		var je *JournalError
		if !errors.As(err, &je) || !errors.Is(err, wal.ErrClosed) {
			t.Errorf("%s on an evicted handle: err = %v, want a *JournalError wrapping wal.ErrClosed", m.name, err)
		}
		if s.Version() != version || s.TotalVotes() != total || s.Tasks() != tasks {
			t.Errorf("%s moved the session: version %d→%d, votes %d→%d, tasks %d→%d", m.name,
				version, s.Version(), total, s.TotalVotes(), tasks, s.Tasks())
		}
	}
}
