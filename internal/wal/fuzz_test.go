package wal

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
	add(append(appendBlock(nil, []votes.Vote{v(9, 4, true), v(10, 4, false)}), opEnd))
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

// mustSorted is appendSorted for batches known to fit.
func mustSorted(buf []byte, batch []votes.Vote, end bool) []byte {
	buf, err := appendSorted(buf, batch, end)
	if err != nil {
		panic(err)
	}
	return buf
}

// sortedSeeds are opSorted payloads for both fuzz corpora: shared and mixed
// workers, workers outside int32, duplicate items, Rice parameters 0 and 30,
// folded boundaries with and without a window rotation behind them, an
// empty record, and forgeries every one of which must fail: a count the
// remaining bits cannot hold, a unary run past the record's end, gaps that
// sum past 2^31-1, and a Rice parameter past 30.
func sortedSeeds() [][]byte {
	v := func(item, worker int, dirty bool) votes.Vote { return mkVote(item, worker, dirty) }
	var seeds [][]byte
	add := func(b []byte) { seeds = append(seeds, b) }
	add(mustSorted(nil, []votes.Vote{v(300, 7, true), v(2, 7, false), v(1, 7, true)}, true))
	add(appendWindow(mustSorted(nil, []votes.Vote{v(5000, 9, true), v(1, 7, true), v(2, -3, false)}, true), 12))
	add(append(mustSorted(nil, []votes.Vote{v(5, 1<<40, true), v(4, 1<<40, false)}, false), opEnd))
	add(mustSorted(nil, []votes.Vote{v(6, 1, true), v(5, -(1 << 35), false), v(6, 2, false), v(4, 1, true)}, true))
	add(mustSorted(nil, []votes.Vote{v(0, 2, true), v(0, 2, false), v(0, 2, true)}, true))
	add(appendWindow(mustSorted(nil, []votes.Vote{v(math.MaxInt32, 5, true), v(0, 6, false)}, true), 1<<40))
	add(mustSorted(mustSorted(nil, []votes.Vote{v(17, 1, false)}, false), []votes.Vote{v(3, 1, true)}, true))
	add([]byte{opSorted, 0x00})
	// 100 votes of at least 9 bits cannot fit in the three bytes that follow.
	add(append(binary.AppendUvarint([]byte{opSorted | 7}, 100<<2|2), 0x04, 0xff, 0xff, 0xff))
	// Two 2-bit votes fit in one byte, but its bits are all zero: the first
	// vote's unary run never ends.
	add([]byte{opSorted, 2<<2 | 2, 0x04, 0x00})
	// Three gaps of 2^30 at Rice parameter 30 (a zero bit, the one that ends
	// it, 30 zero bits of remainder and a clean dirty bit each): the second
	// vote's item passes 2^31-1.
	gaps, bw := newBitWriter(append(binary.AppendUvarint([]byte{opSorted | 30}, 3<<2|2), 0x04), 3*33)
	for range 3 {
		bw.put(0b10, 2)
		bw.put(0, 31)
	}
	bw.done()
	add(gaps)
	add([]byte{opSorted | 31, 1<<2 | 2, 0x04, 0x01, 0x00, 0x00, 0x00, 0x00})
	return seeds
}

// TestSortedRecordRefusesForgeries decodes the forged opSorted records that
// close sortedSeeds — a count the bits cannot hold, a unary run past the
// record's end, gaps summing past 2^31-1 and a Rice parameter of 31 — with
// and without a Votes hook: each must fail, and the scratch must not grow
// past the votes the record's bytes could hold, four a byte.
func TestSortedRecordRefusesForgeries(t *testing.T) {
	seeds := sortedSeeds()
	for i, p := range seeds[len(seeds)-4:] {
		for _, keep := range []bool{true, false} {
			if _, _, scratchCap, err := decodeEvents(p, keep); err == nil || scratchCap > 4*len(p) {
				t.Errorf("forgery %d (votes kept %v): err %v, scratch of %d votes for %d bytes", i, keep, err, scratchCap, len(p))
			}
		}
	}
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
	for _, p := range sortedSeeds() {
		f.Add(append(append([]byte{}, segMagic...), appendFrame(nil, p)...))
	}
	f.Add(appendFrame(multi, append(sortedSeeds()[1], packedSeeds()[7]...)))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "wal-0000000000000001.seg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		n := 0
		hooks := Hooks{
			Votes: func(batch []votes.Vote) error {
				for _, v := range batch {
					if v.Item < 0 {
						t.Fatalf("scanner surfaced negative item %d", v.Item)
					}
				}
				n += len(batch)
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

// event is one replayed record.
type event struct {
	Kind   byte
	Item   int
	Worker int
	Dirty  bool
	Start  int64
}

// decodeEvents decodes p through the batched hooks, returning its event
// stream, the batches as delivered, the capacity the scratch ended with, and
// the error. With keepVotes unset the Votes hook is left nil, so votes are
// decoded and dropped.
func decodeEvents(p []byte, keepVotes bool) (events []event, batches [][]votes.Vote, scratchCap int, err error) {
	var scratch []votes.Vote
	h := Hooks{
		EndTask: func() { events = append(events, event{Kind: opEnd}) },
		Reset:   func() { events = append(events, event{Kind: opReset}) },
		Window: func(start int64) error {
			events = append(events, event{Kind: opWindow, Start: start})
			return nil
		},
		Batch: &scratch,
	}
	if keepVotes {
		h.Votes = func(batch []votes.Vote) error {
			if len(batch) == 0 {
				panic("empty batch delivered")
			}
			batches = append(batches, slices.Clone(batch))
			events = append(events, voteEvents(batch)...)
			return nil
		}
	}
	err = decodeRecords(p, h)
	return events, batches, cap(scratch), err
}

// withoutVotes returns the events that are not votes.
func withoutVotes(events []event) []event {
	var out []event
	for _, e := range events {
		if e.Kind != opVote {
			out = append(out, e)
		}
	}
	return out
}

// byItem stable-sorts a copy of batch by item, the order an opSorted record
// gives back.
func byItem(batch []votes.Vote) []votes.Vote {
	out := slices.Clone(batch)
	slices.SortStableFunc(out, func(a, b votes.Vote) int { return cmp.Compare(a.Item, b.Item) })
	return out
}

// voteEvents returns batch as vote events.
func voteEvents(batch []votes.Vote) []event {
	out := make([]event, len(batch))
	for i, v := range batch {
		out[i] = event{Kind: opVote, Item: v.Item, Worker: v.Worker, Dirty: v.Label == votes.Dirty}
	}
	return out
}

// reencode writes events back as this build writes records, the way
// compaction does: each batch as one sorted record, each boundary folded
// into the record before it when that is a batch. It also returns the
// stream the records decode to: events with each batch stable-sorted by
// item. ok is false when a batch holds an item no record can hold.
func reencode(events []event, batches [][]votes.Vote) (p []byte, want []event, ok bool) {
	open := -1
	for i := 0; i < len(events); {
		switch e := events[i]; e.Kind {
		case opVote:
			b := batches[0]
			batches = batches[1:]
			q, err := appendSorted(p, b, false)
			if err != nil {
				return nil, nil, false
			}
			open, p = len(p)+1, q
			want = append(want, voteEvents(byItem(b))...)
			i += len(b)
			continue
		case opEnd:
			if open < 0 {
				p = append(p, opEnd)
			} else {
				p[open] |= 1
			}
		case opReset:
			p = append(p, opReset)
		case opWindow:
			p = appendWindow(p, e.Start)
		}
		want = append(want, events[i])
		open = -1
		i++
	}
	return p, want, true
}

// FuzzRecordDecode checks the record decoder on arbitrary payloads. Decoding
// with and without a Votes hook must accept and reject the same payloads and
// report the same end, reset and window stream. What is accepted, written
// back as compaction writes it, must decode to the same stream with each
// batch stable-sorted by item. A packed vote takes at least one bit and a
// sorted one two, so a payload holds at most eight votes per byte, and the
// scratch, which grows by append, can never need to outgrow twice that.
func FuzzRecordDecode(f *testing.F) {
	f.Add([]byte{opEnd, opReset})
	var rec []byte
	rec = appendVote(rec, votes.Vote{Item: 1 << 30, Worker: -5, Label: votes.Clean})
	f.Add(rec)
	f.Add(appendWindow([]byte{opEnd}, 1<<40))
	f.Add(appendColumns(nil, votelog.AppendBinaryVote(nil, 9, 4, true)))
	// A columnar record whose declared length overruns the payload.
	f.Add([]byte{opColumns, 0xff, 0xff, 0x7f, 'V'})
	// A worker outside int32 between small ones, across record kinds.
	mixed := appendVote(nil, votes.Vote{Item: 2, Worker: 1})
	mixed = appendVote(mixed, votes.Vote{Item: 3, Worker: math.MaxInt32 + 1, Label: votes.Dirty})
	mixed = appendColumns(mixed, votelog.AppendBinaryVote(nil, 4, 1, false))
	f.Add(append(mixed, opEnd))
	for _, p := range append(blockSeeds(), packedSeeds()...) {
		f.Add(p)
	}
	f.Add(multiBatchSeed())
	for _, p := range sortedSeeds() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, batches, scratchCap, err := decodeEvents(data, true)
		bare, _, _, errBare := decodeEvents(data, false)
		if (err == nil) != (errBare == nil) {
			t.Fatalf("the Votes hook changes rejection: with %v, without %v", err, errBare)
		}
		if limit := 16*len(data) + 16; scratchCap > limit {
			t.Fatalf("scratch grew to %d votes for a %d-byte payload", scratchCap, len(data))
		}
		if err != nil {
			return
		}
		if want := withoutVotes(events); !reflect.DeepEqual(bare, want) {
			t.Fatalf("dropping votes changes the other records:\n without %v\n    with %v", bare, want)
		}
		p, want, ok := reencode(events, batches)
		if !ok {
			return
		}
		again, _, _, err := decodeEvents(p, true)
		if err != nil || !reflect.DeepEqual(again, want) {
			t.Fatalf("written back, the stream changes (err %v):\nwant %v\n now %v", err, want, again)
		}
	})
}

// riceBits returns the bits the vote stream of an opSorted record of batch
// takes at Rice parameter k, counted from the batch sorted by item.
func riceBits(sorted []votes.Vote, k uint) uint64 {
	total, prev := uint64(0), 0
	for _, v := range sorted {
		total += uint64(v.Item-prev)>>k + uint64(k) + 2
		prev = v.Item
	}
	return total
}

// FuzzPackedRoundTrip encodes random batches as the journal's vote record,
// opSorted — 1 to 3,000 votes, items of every width 0 to 31, duplicate
// items, a shared worker or mixed ones (some outside int32), with and
// without a folded task boundary — and decodes them through the batched
// hooks: they must give back the batch stable-sorted by item, each vote
// with its worker and label, as one batch, then the boundary when it was
// folded in. The opcode's Rice parameter must be the smallest that
// minimizes the record, and the record no more than a byte longer than the
// batch's opPacked record when its largest item is not 0.
func FuzzPackedRoundTrip(f *testing.F) {
	f.Add(int64(1), uint16(20), uint8(13), uint8(0), true)
	f.Add(int64(2), uint16(1), uint8(0), uint8(1), false)
	f.Add(int64(3), uint16(300), uint8(31), uint8(2), true)
	f.Add(int64(4), uint16(7), uint8(5), uint8(3), false)
	f.Add(int64(5), uint16(2999), uint8(20), uint8(4), true)
	f.Add(int64(6), uint16(64), uint8(31), uint8(7), false)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, width, mode uint8, end bool) {
		rng := rand.New(rand.NewSource(seed))
		width %= 32
		count := 1 + int(n)%3000
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
		// mode 4 to 7 draws items from a handful, so most repeat.
		var pool []int
		if mode&4 != 0 && width > 0 {
			pool = make([]int, 1+rng.Intn(8))
			for i := range pool {
				pool[i] = int(rng.Int63n(1 << width))
			}
		}
		batch := make([]votes.Vote, count)
		for i := range batch {
			item := 0
			switch {
			case pool != nil:
				item = pool[rng.Intn(len(pool))]
			case width > 0:
				item = int(rng.Int63n(1 << width))
			}
			batch[i] = mkVote(item, worker(), rng.Intn(2) == 0)
		}
		if width > 0 {
			// One item takes all width bits, so the batch's width is width.
			batch[rng.Intn(count)].Item |= 1 << (width - 1)
		}
		in := slices.Clone(batch)
		p, err := appendSorted(nil, batch, end)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch, in) {
			t.Fatal("appendSorted modified its batch")
		}
		sorted := byItem(batch)
		best := uint(0)
		for k := uint(1); k <= maxRiceParam; k++ {
			if riceBits(sorted, k) < riceBits(sorted, best) {
				best = k
			}
		}
		if p[0] != opSorted|byte(best) {
			t.Fatalf("opcode 0x%02x, want 0x%02x", p[0], opSorted|byte(best))
		}
		if packed, _ := appendPacked(nil, batch, end); width > 0 && len(p) > len(packed)+1 {
			t.Fatalf("the sorted record takes %d bytes, the packed one %d", len(p), len(packed))
		}
		var want []event
		if end {
			want = append(want, event{Kind: opEnd})
		}
		events, batches, _, err := decodeEvents(p, true)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(batches) != 1 || !reflect.DeepEqual(batches[0], sorted) || !reflect.DeepEqual(withoutVotes(events), want) {
			t.Fatalf("round trip lost votes:\nwant %v then %v\n got %v", sorted, want, events)
		}
	})
}

// TestPackedRefusesWideItems: an item outside [0, 2^31) does not fit a
// journal record. The encoder refuses it with errItemTooWide and leaves the
// buffer as it was, and the journal stages nothing for the batch and stays
// healthy: later batches are recovered, the refused ones are not.
func TestPackedRefusesWideItems(t *testing.T) {
	for _, item := range []int{math.MaxInt32 + 1, -1, 1 << 40} {
		batch := []votes.Vote{mkVote(3, 1, true), mkVote(item, 1, false)}
		if buf, err := appendSorted([]byte{opEnd}, batch, true); !errors.Is(err, errItemTooWide) || !bytes.Equal(buf, []byte{opEnd}) {
			t.Errorf("item %d: appendSorted = (%x, %v), want the buffer untouched and errItemTooWide", item, buf, err)
		}
	}

	s := testStore(t, Options{Fsync: FsyncNever})
	j, err := s.Create(Meta{ID: "wide", Items: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendCommit(j, []votes.Vote{mkVote(1, 1, true), mkVote(math.MaxInt32+1, 1, true)}, true, 4); !errors.Is(err, errItemTooWide) {
		t.Fatalf("Append of a wide item: err = %v, want errItemTooWide", err)
	}
	if err := j.Stage([]votes.Vote{mkVote(2, 1, true), mkVote(-5, 1, false)}, true, -1); !errors.Is(err, errItemTooWide) {
		t.Fatalf("Stage of a negative item: err = %v, want errItemTooWide", err)
	}
	if err := appendCommit(j, []votes.Vote{mkVote(7, 2, false)}, true, -1); err != nil {
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
