package engine

import (
	"bytes"
	"reflect"
	"testing"

	"dqm/internal/estimator"
	"dqm/internal/votelog"
	"dqm/internal/votes"
)

// replayIntoSession drives a vote log through a session the way cmd/dqm
// drives a Recorder: one Append per task boundary.
func replayIntoSession(t *testing.T, s *Session, entries []votelog.Entry) {
	t.Helper()
	var batch []votes.Vote
	flush := func() {
		if err := s.Append(batch, true); err != nil {
			t.Fatalf("Append: %v", err)
		}
		batch = batch[:0]
	}
	votelog.Replay(entries,
		func(e votelog.Entry) {
			label := votes.Clean
			if e.Dirty {
				label = votes.Dirty
			}
			batch = append(batch, votes.Vote{Item: e.Item, Worker: e.Worker, Label: label})
		},
		flush)
}

// TestVotelogRoundTripThroughEngine is the satellite coverage: a vote log is
// recorded, serialized, re-read, and replayed through the session engine,
// whole and split at a task boundary — estimates must round-trip
// bit-identically at every stage.
func TestVotelogRoundTripThroughEngine(t *testing.T) {
	_, tasks := simTasks(t, 150, 60, 99)
	entries := votelog.FromTasks(tasks)
	n := votelog.MaxItem(entries) + 1

	// Serialize and re-read both encodings; both logs must replay to the
	// same estimates as the in-memory entries.
	var csvBuf, jsonlBuf bytes.Buffer
	if err := votelog.WriteCSV(&csvBuf, entries); err != nil {
		t.Fatal(err)
	}
	if err := votelog.WriteJSONL(&jsonlBuf, entries); err != nil {
		t.Fatal(err)
	}
	fromCSV, err := votelog.ReadCSV(&csvBuf)
	if err != nil {
		t.Fatal(err)
	}
	fromJSONL, err := votelog.ReadJSONL(&jsonlBuf)
	if err != nil {
		t.Fatal(err)
	}

	want := func(es []votelog.Entry) estimator.Estimates {
		s := NewSession("ref", n, SessionConfig{})
		replayIntoSession(t, s, es)
		return s.Estimates()
	}
	ref := want(entries)
	if got := want(fromCSV); !reflect.DeepEqual(got, ref) {
		t.Fatalf("CSV round trip diverged: %+v != %+v", got, ref)
	}
	if got := want(fromJSONL); !reflect.DeepEqual(got, ref) {
		t.Fatalf("JSONL round trip diverged: %+v != %+v", got, ref)
	}

	// Replay the head, then the tail: identical estimates to the
	// uninterrupted replay.
	s := NewSession("rt", n, SessionConfig{})
	// Split at a task boundary so the trend series sees the same EndTask
	// sequence in both runs.
	split := 0
	for i := 1; i < len(entries); i++ {
		if entries[i].Task != entries[i-1].Task && i > len(entries)/2 {
			split = i
			break
		}
	}
	if split == 0 {
		t.Fatal("no task boundary found in the second half of the log")
	}
	replayIntoSession(t, s, entries[:split])
	replayIntoSession(t, s, entries[split:])
	if got := s.Estimates(); !reflect.DeepEqual(got, ref) {
		t.Fatalf("split replay diverged from full replay: %+v != %+v", got, ref)
	}
}
