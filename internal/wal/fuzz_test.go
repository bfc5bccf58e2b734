package wal

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dqm/internal/votelog"
	"dqm/internal/votes"
)

// blockSeeds are opBlock payloads for both fuzz corpora: a shared worker,
// per-vote workers, workers outside int32 (shared and per vote), empty blocks
// with and without a shared worker, and counts the remaining bytes cannot
// hold.
func blockSeeds() [][]byte {
	v := func(item, worker int, dirty bool) votes.Vote { return mkVote(item, worker, dirty) }
	var seeds [][]byte
	add := func(b []byte) { seeds = append(seeds, b) }
	add(append(appendBlock(nil, []votes.Vote{v(1, 7, true), v(2, 7, false), v(300, 7, true)}), opEnd))
	add(appendWindow(append(appendBlock(nil, []votes.Vote{v(1, 7, true), v(2, -3, false), v(5000, 9, true)}), opEnd), 12))
	add(append(appendBlock(nil, []votes.Vote{v(4, 1<<40, true), v(5, 1<<40, false)}), opEnd))
	add(append(appendBlock(nil, []votes.Vote{v(4, 1, true), v(5, -(1 << 35), false), v(6, 1, true)}), opEnd))
	add(append(appendBlock(nil, []votes.Vote{v(1<<33, 2, true)}), opEnd))
	add([]byte{opBlock, 0x00, opEnd})
	add([]byte{opBlock, 0x01, 0x04, opEnd})
	huge := binary.AppendUvarint([]byte{opBlock}, 1<<41|1)
	add(append(huge, 0x04, 0x02, 0x04))
	add(append(binary.AppendUvarint([]byte{opBlock}, 6<<1), 0x02, 0x04, 0x06, 0x08))
	return seeds
}

// FuzzSegmentScan feeds arbitrary bytes to the segment scanner: it must never
// panic, never report more valid bytes than exist, and always replay a
// record stream that the codec itself could have produced.
func FuzzSegmentScan(f *testing.F) {
	f.Add([]byte{})
	f.Add(segMagic)
	// A well-formed single-frame segment as a constructive seed.
	var payload []byte
	payload = appendVote(payload, votes.Vote{Item: 3, Worker: 1, Label: votes.Dirty})
	payload = append(payload, opEnd)
	f.Add(append(append([]byte{}, segMagic...), appendFrame(nil, payload)...))
	// A windowed-session frame: vote, task boundary, window rotation.
	var winPayload []byte
	winPayload = appendVote(winPayload, votes.Vote{Item: 7, Worker: 2, Label: votes.Clean})
	winPayload = append(winPayload, opEnd)
	winPayload = appendWindow(winPayload, 42)
	f.Add(append(append([]byte{}, segMagic...), appendFrame(nil, winPayload)...))
	// A columnar frame: one batch of raw DQMV 'V' records plus a boundary.
	var colPayload []byte
	colPayload = appendColumns(colPayload, votelog.AppendBinaryVote(votelog.AppendBinaryVote(nil, 5, 3, true), 6, -2, false))
	colPayload = append(colPayload, opEnd)
	f.Add(append(append([]byte{}, segMagic...), appendFrame(nil, colPayload)...))
	for _, p := range blockSeeds() {
		f.Add(append(append([]byte{}, segMagic...), appendFrame(nil, p)...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "wal-0000000000000001.seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		n := 0
		hooks := Hooks{
			Vote: func(item, worker int, dirty bool) error {
				if item < 0 {
					t.Fatalf("scanner surfaced negative item %d", item)
				}
				n++
				return nil
			},
			EndTask: func() { n++ },
			Reset:   func() { n++ },
			Window: func(start int64) error {
				if start < 0 {
					t.Fatalf("scanner surfaced negative window start %d", start)
				}
				n++
				return nil
			},
		}
		res, _, err := scanSegment(path, hooks, nil)
		if err != nil {
			return
		}
		if res.valid < 0 || res.valid > int64(len(data)) {
			t.Fatalf("valid offset %d outside file of %d bytes", res.valid, len(data))
		}
	})
}

// event is one replayed record as a decode path reports it.
type event struct {
	Kind   byte
	Item   int
	Worker int
	Dirty  bool
	Start  int64
}

// decodeBoth decodes p through the per-vote hooks and through the batched
// Votes/Cols path, returning each path's event stream and error, and the
// capacity the batched path's scratch ended with.
func decodeBoth(p []byte) (perVote, batched []event, errV, errB error, colsCap int) {
	hooks := func(out *[]event) Hooks {
		return Hooks{
			Vote: func(item, worker int, dirty bool) error {
				*out = append(*out, event{Kind: opVote, Item: item, Worker: worker, Dirty: dirty})
				return nil
			},
			EndTask: func() { *out = append(*out, event{Kind: opEnd}) },
			Reset:   func() { *out = append(*out, event{Kind: opReset}) },
			Window: func(start int64) error {
				*out = append(*out, event{Kind: opWindow, Start: start})
				return nil
			},
		}
	}
	errV = decodeRecords(p, hooks(&perVote))
	h := hooks(&batched)
	var cols votelog.VoteColumns
	h.Cols = &cols
	h.Votes = func(c *votelog.VoteColumns) error {
		if c.Len() == 0 {
			panic("empty batch delivered")
		}
		for i := range c.Item {
			batched = append(batched, event{Kind: opVote, Item: int(c.Item[i]), Worker: int(c.Worker[i]), Dirty: c.Dirty[i]})
		}
		return nil
	}
	errB = decodeRecords(p, h)
	return perVote, batched, errV, errB, cap(cols.Item)
}

// FuzzRecordDecode is a differential check of the record codec: every payload
// decodes through the per-vote hooks and through the batched Votes/Cols
// path, and both must report the same vote, end, reset and window stream, or
// both must reject it. A vote takes at least one byte, so the batched path's
// scratch can never need to outgrow the payload.
func FuzzRecordDecode(f *testing.F) {
	f.Add([]byte{opEnd, opReset})
	var rec []byte
	rec = appendVote(rec, votes.Vote{Item: 1 << 30, Worker: -5, Label: votes.Clean})
	f.Add(rec)
	f.Add(appendWindow([]byte{opEnd}, 1<<40))
	f.Add(appendColumns(nil, votelog.AppendBinaryVote(nil, 9, 4, true)))
	// A columnar record whose declared length overruns the payload.
	f.Add([]byte{opColumns, 0xff, 0xff, 0x7f, 'V'})
	// Votes outside the columnar int32 domain, between batchable ones.
	mixed := appendVote(nil, votes.Vote{Item: 2, Worker: 1})
	mixed = appendVote(mixed, votes.Vote{Item: 3, Worker: math.MaxInt32 + 1, Label: votes.Dirty})
	mixed = appendColumns(mixed, votelog.AppendBinaryVote(nil, 4, 1, false))
	f.Add(append(mixed, opEnd))
	for _, p := range blockSeeds() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		perVote, batched, errV, errB, colsCap := decodeBoth(data)
		if (errV == nil) != (errB == nil) {
			t.Fatalf("paths disagree on rejection: per-vote %v, batched %v", errV, errB)
		}
		if errV == nil && !reflect.DeepEqual(perVote, batched) {
			t.Fatalf("paths disagree:\nper-vote %v\n batched %v", perVote, batched)
		}
		if limit := 2*len(data) + 16; colsCap > limit {
			t.Fatalf("batched scratch grew to %d rows for a %d-byte payload", colsCap, len(data))
		}
	})
}
