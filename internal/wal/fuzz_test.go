package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dqm/internal/votelog"
	"dqm/internal/votes"
)

// blockSeeds are opBlock payloads, as earlier builds wrote them, for both
// fuzz corpora: a shared worker, per-vote workers, workers outside int32
// (shared and per vote), empty blocks with and without a shared worker, and
// counts the remaining bytes cannot hold.
func blockSeeds() [][]byte {
	v := func(item, worker int, dirty bool) votes.Vote { return mkVote(item, worker, dirty) }
	var seeds [][]byte
	add := func(b []byte) { seeds = append(seeds, b) }
	add(append(appendBlock(nil, []votes.Vote{v(1, 7, true), v(2, 7, false), v(300, 7, true)}), opEnd))
	add(appendWindow(append(appendBlock(nil, []votes.Vote{v(1, 7, true), v(2, -3, false), v(5000, 9, true)}), opEnd), 12))
	add(append(appendBlock(nil, []votes.Vote{v(4, 1<<40, true), v(5, 1<<40, false)}), opEnd))
	add(append(appendBlock(nil, []votes.Vote{v(4, 1, true), v(5, -(1 << 35), false), v(6, 1, true)}), opEnd))
	add(append(appendBlock(nil, []votes.Vote{v(1<<33, 2, true)}), opEnd))
	var cols votelog.VoteColumns
	cols.Append(9, 4, true)
	cols.Append(10, 4, false)
	add(append(appendColumnsBlock(nil, &cols, 0, cols.Len()), opEnd))
	add([]byte{opBlock, 0x00, opEnd})
	add([]byte{opBlock, 0x01, 0x04, opEnd})
	huge := binary.AppendUvarint([]byte{opBlock}, 1<<41|1)
	add(append(huge, 0x04, 0x02, 0x04))
	add(append(binary.AppendUvarint([]byte{opBlock}, 6<<1), 0x02, 0x04, 0x06, 0x08))
	return seeds
}

// mustPacked is appendPacked for batches known to fit.
func mustPacked(buf []byte, batch []votes.Vote, end bool) []byte {
	buf, err := appendPacked(buf, batch, end)
	if err != nil {
		panic(err)
	}
	return buf
}

// packedSeeds are opPacked payloads for both fuzz corpora: shared and mixed
// workers, workers outside int32, widths 0 and 31, eight votes a byte,
// folded boundaries with and without a window rotation behind them, empty
// records, and counts whose bits, or whose workers, overrun the record.
func packedSeeds() [][]byte {
	v := func(item, worker int, dirty bool) votes.Vote { return mkVote(item, worker, dirty) }
	var seeds [][]byte
	add := func(b []byte) { seeds = append(seeds, b) }
	add(mustPacked(nil, []votes.Vote{v(1, 7, true), v(2, 7, false), v(300, 7, true)}, true))
	add(appendWindow(mustPacked(nil, []votes.Vote{v(1, 7, true), v(2, -3, false), v(5000, 9, true)}, true), 12))
	add(append(mustPacked(nil, []votes.Vote{v(4, 1<<40, true), v(5, 1<<40, false)}, false), opEnd))
	add(mustPacked(nil, []votes.Vote{v(4, 1, true), v(5, -(1 << 35), false), v(6, 1, true)}, true))
	add(mustPacked(nil, []votes.Vote{v(0, 2, true), v(0, 2, false), v(0, 2, true)}, true))
	// 65 one-bit votes in 13 bytes: the batched scratch grows to 128 rows.
	ones := make([]votes.Vote, 65)
	for i := range ones {
		ones[i] = v(0, 3, i%3 == 0)
	}
	add(mustPacked(nil, ones, true))
	add(appendWindow(mustPacked(nil, []votes.Vote{v(math.MaxInt32, 5, true), v(1, 6, false)}, true), 1<<40))
	add(mustPacked(mustPacked(nil, []votes.Vote{v(3, 1, false)}, false), []votes.Vote{v(17, 1, true)}, true))
	add([]byte{opPacked, 0x00})
	add([]byte{opPacked | 5, 0x03, 0x04, opWindow, 0x02})
	// 100 votes of 32 bits cannot fit in the three bytes that follow.
	add(append(binary.AppendUvarint([]byte{opPacked | 31}, 100<<2|2), 0x04, 0xff, 0xff, 0xff))
	// Eight 1-bit keys fit in one byte, but their eight workers do not.
	add([]byte{opPacked, 8 << 2, 0xaa, 0x02, 0x04, 0x06})
	add(append(binary.AppendUvarint([]byte{opPacked | 3}, 1<<62|1), 0x04, 0x02))
	return seeds
}

// appendFrame appends payload to buf as one sealed frame.
func appendFrame(buf, payload []byte) []byte {
	return append(buf, sealFrame(append(make([]byte, frameHead), payload...))...)
}

// multiBatchSeed is one frame payload holding several batches, as a flush
// seals them: a shared-worker task, a mixed-worker task that seals a window,
// a reset, a batch with no boundary and a bare boundary.
func multiBatchSeed() []byte {
	v := func(item, worker int, dirty bool) votes.Vote { return mkVote(item, worker, dirty) }
	p := mustPacked(nil, []votes.Vote{v(1, 3, true), v(2, 3, false)}, true)
	p = appendTaskEnd(mustPacked(p, []votes.Vote{v(4, 1, true), v(5, -2, false), v(6, 9, true)}, true), true, true, 0)
	p = append(p, opReset)
	p = mustPacked(p, []votes.Vote{v(7, 4, false)}, false)
	return appendTaskEnd(p, true, false, -1)
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
	for _, p := range append(blockSeeds(), packedSeeds()...) {
		f.Add(append(append([]byte{}, segMagic...), appendFrame(nil, p)...))
	}
	// Frames of several batches each, as one flush seals them.
	multi := append(append([]byte{}, segMagic...), appendFrame(nil, multiBatchSeed())...)
	f.Add(appendFrame(multi, append(blockSeeds()[1], multiBatchSeed()...)))
	f.Add(appendFrame(multi, append(packedSeeds()[1], packedSeeds()[7]...)))

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
// both must reject it. A packed vote takes at least one bit, so a payload
// holds at most eight votes per byte, and the batched path's scratch, which
// grows by append, can never need to outgrow twice that.
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
	for _, p := range append(blockSeeds(), packedSeeds()...) {
		f.Add(p)
	}
	f.Add(multiBatchSeed())
	f.Fuzz(func(t *testing.T, data []byte) {
		perVote, batched, errV, errB, colsCap := decodeBoth(data)
		if (errV == nil) != (errB == nil) {
			t.Fatalf("paths disagree on rejection: per-vote %v, batched %v", errV, errB)
		}
		if errV == nil && !reflect.DeepEqual(perVote, batched) {
			t.Fatalf("paths disagree:\nper-vote %v\n batched %v", perVote, batched)
		}
		if limit := 16*len(data) + 16; colsCap > limit {
			t.Fatalf("batched scratch grew to %d rows for a %d-byte payload", colsCap, len(data))
		}
	})
}

// FuzzPackedRoundTrip encodes random batches as opPacked records — widths 0
// to 31, a shared worker or mixed ones (some outside int32), with and
// without a folded task boundary — and decodes them through the per-vote and
// the batched hooks: both must give back the batch's votes in order, then
// the boundary when it was folded in. The record's opcode must carry the
// largest item's bit width, and the columnar encoder must write the same
// bytes whenever the batch fits its int32 domain.
func FuzzPackedRoundTrip(f *testing.F) {
	f.Add(int64(1), uint16(20), uint8(13), uint8(0), true)
	f.Add(int64(2), uint16(1), uint8(0), uint8(1), false)
	f.Add(int64(3), uint16(300), uint8(31), uint8(2), true)
	f.Add(int64(4), uint16(7), uint8(5), uint8(3), false)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, width, mode uint8, end bool) {
		rng := rand.New(rand.NewSource(seed))
		width %= maxPackedWidth + 1
		count := 1 + int(n)%512
		// worker draws a worker id: mode 0 shares a small one, 1 shares one
		// outside int32, 2 mixes small ones and 3 mixes in some outside int32.
		shared := int(rng.Int63n(1<<40)) - 1<<39
		if mode%4 == 0 {
			shared = rng.Intn(100) - 50
		}
		worker := func() int {
			switch mode % 4 {
			case 0, 1:
				return shared
			case 2:
				return rng.Intn(2000) - 1000
			}
			if rng.Intn(4) == 0 {
				return int(rng.Int63n(1<<40)) - 1<<39
			}
			return rng.Intn(9)
		}
		batch := make([]votes.Vote, count)
		for i := range batch {
			item := 0
			if width > 0 {
				item = int(rng.Int63n(1 << width))
			}
			batch[i] = mkVote(item, worker(), rng.Intn(2) == 0)
		}
		if width > 0 {
			// One item takes all width bits, so the record's width is width.
			batch[rng.Intn(count)].Item |= 1 << (width - 1)
		}
		p, err := appendPacked(nil, batch, end)
		if err != nil {
			t.Fatal(err)
		}
		if p[0] != opPacked|width {
			t.Fatalf("opcode 0x%02x, want 0x%02x", p[0], opPacked|width)
		}
		var want []event
		inInt32 := true
		for _, v := range batch {
			want = append(want, event{Kind: opVote, Item: v.Item, Worker: v.Worker, Dirty: v.Label == votes.Dirty})
			inInt32 = inInt32 && v.Worker >= math.MinInt32 && v.Worker <= math.MaxInt32
		}
		if end {
			want = append(want, event{Kind: opEnd})
		}
		perVote, batched, errV, errB, _ := decodeBoth(p)
		if errV != nil || errB != nil {
			t.Fatalf("decode: per-vote %v, batched %v", errV, errB)
		}
		if !reflect.DeepEqual(perVote, want) || !reflect.DeepEqual(batched, want) {
			t.Fatalf("round trip lost votes:\n     want %v\nper-vote %v\n batched %v", want, perVote, batched)
		}
		if inInt32 {
			var cols votelog.VoteColumns
			cols.Append(0, 0, false) // rows before from are not encoded
			for _, v := range batch {
				cols.Append(int32(v.Item), int32(v.Worker), v.Label == votes.Dirty)
			}
			c, err := appendPackedColumns(nil, &cols, 1, cols.Len(), end)
			if err != nil || !bytes.Equal(c, p) {
				t.Fatalf("columnar encoding differs (err %v):\n%x\n%x", err, c, p)
			}
		}
	})
}

// TestPackedRefusesWideItems: an item outside [0, 2^31) does not fit an
// opPacked record. Both encoders refuse it with errItemTooWide and leave the
// buffer as it was, and the journal stages nothing for the batch and stays
// healthy: later batches are recovered, the refused one is not.
func TestPackedRefusesWideItems(t *testing.T) {
	for _, item := range []int{math.MaxInt32 + 1, -1, 1 << 40} {
		batch := []votes.Vote{mkVote(3, 1, true), mkVote(item, 1, false)}
		if buf, err := appendPacked([]byte{opEnd}, batch, true); !errors.Is(err, errItemTooWide) || !bytes.Equal(buf, []byte{opEnd}) {
			t.Errorf("item %d: appendPacked = (%x, %v), want the buffer untouched and errItemTooWide", item, buf, err)
		}
	}
	var cols votelog.VoteColumns
	cols.Append(2, 1, true)
	cols.Append(-5, 1, false)
	if buf, err := appendPackedColumns(nil, &cols, 0, 2, false); !errors.Is(err, errItemTooWide) || len(buf) != 0 {
		t.Errorf("appendPackedColumns = (%x, %v), want nothing and errItemTooWide", buf, err)
	}

	s := testStore(t, Options{Fsync: FsyncNever})
	j, err := s.Create(Meta{ID: "wide", Items: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]votes.Vote{mkVote(1, 1, true), mkVote(math.MaxInt32+1, 1, true)}, true, 4); !errors.Is(err, errItemTooWide) {
		t.Fatalf("Append of a wide item: err = %v, want errItemTooWide", err)
	}
	if err := j.StageColumns(&cols, 0, 2, true, -1); !errors.Is(err, errItemTooWide) {
		t.Fatalf("StageColumns of a negative item: err = %v, want errItemTooWide", err)
	}
	if err := j.Append([]votes.Vote{mkVote(7, 2, false)}, true, -1); err != nil {
		t.Fatalf("Append after a refusal: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var got []op
	j2, err := s.Recover("wide", recHooks(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if want := []op{{Kind: opVote, Item: 7, Worker: 2}, {Kind: opEnd}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}
