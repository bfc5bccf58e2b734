package votelog

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"dqm/internal/votes"
)

// splitDecodeAll runs SplitBinaryTasks and decodes every block's raw bytes
// back into Entry values, reproducing the stream the Entry decoder would have
// produced — the equivalence the block path promises.
func splitDecodeAll(t *testing.T, data []byte) []Entry {
	t.Helper()
	blocks, err := SplitBinaryTasks(data)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	var batch []votes.Vote
	var out []Entry
	for _, b := range blocks {
		if batch, err = DecodeVotes(batch[:0], b.Raw); err != nil {
			t.Fatalf("decode block task %d: %v", b.Task, err)
		}
		if len(batch) != b.Votes {
			t.Fatalf("block task %d: split counted %d votes, decode found %d", b.Task, b.Votes, len(batch))
		}
		for _, v := range batch {
			out = append(out, Entry{
				Task:   int(b.Task),
				Item:   v.Item,
				Worker: v.Worker,
				Dirty:  v.Label == votes.Dirty,
			})
		}
	}
	return out
}

// TestSplitBinaryTasksMatchesEntryDecoder: the zero-copy split plus block
// decode must reconstruct exactly what ReadBinary yields for any well-formed
// log — same votes, same task assignment, same order.
func TestSplitBinaryTasksMatchesEntryDecoder(t *testing.T) {
	for _, entries := range [][]Entry{
		{{Task: 0, Item: 1, Worker: 2, Dirty: true}},
		{{Task: 9, Item: 0, Worker: -3, Dirty: false}}, // nonzero first task
		genEntries(11, 400),
	} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, entries); err != nil {
			t.Fatal(err)
		}
		got := splitDecodeAll(t, buf.Bytes())
		if !reflect.DeepEqual(got, entries) {
			t.Fatalf("block path diverged from Entry decoder: got %d entries, want %d", len(got), len(entries))
		}
	}
}

func TestSplitBinaryTasksEmptyAndErrors(t *testing.T) {
	// Bare magic: structurally valid, zero blocks.
	blocks, err := SplitBinaryTasks(BinaryMagic())
	if err != nil || len(blocks) != 0 {
		t.Fatalf("bare magic: blocks=%v err=%v", blocks, err)
	}
	for name, data := range map[string][]byte{
		"empty":            nil,
		"short magic":      []byte("DQM"),
		"wrong magic":      []byte("DQMX\x01"),
		"wrong version":    []byte("DQMV\x02"),
		"unknown opcode":   append(BinaryMagic(), 0xEE),
		"truncated vote":   append(BinaryMagic(), binOpVote),
		"truncated worker": AppendBinaryVote(BinaryMagic(), 3, 1, true)[:6],
		"huge item": append(BinaryMagic(),
			binOpVote, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00),
	} {
		if _, err := SplitBinaryTasks(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The same malformed vote bodies must also fail the block decoder.
	for name, raw := range map[string][]byte{
		"bad opcode":     {0xEE},
		"truncated item": {binOpVote},
		"truncated worker": AppendBinaryVote(nil, 3, 1, true)[:len(
			AppendBinaryVote(nil, 3, 1, true))-1],
		"huge worker": binary.AppendUvarint([]byte{binOpVote, 0x02}, zigzag(math.MaxInt32+1)),
	} {
		if _, err := DecodeVotes(nil, raw); err == nil {
			t.Errorf("DecodeVotes %s: accepted", name)
		}
	}
}

// TestSplitBinaryTasksRedundantTaskRecord: a same-task 'T' record must seal
// the current run (so its bytes never land inside a block's Raw) without
// creating a spurious task boundary.
func TestSplitBinaryTasksRedundantTaskRecord(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, []Entry{{Task: 3, Item: 1, Worker: 0, Dirty: true}}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Append a redundant delta-0 'T' and one more vote for the same task.
	data = append(data, binOpTask, 0x00)
	data = AppendBinaryVote(data, 2, 1, false)
	blocks, err := SplitBinaryTasks(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 || blocks[0].Task != 3 || blocks[1].Task != 3 {
		t.Fatalf("blocks = %+v, want two task-3 blocks", blocks)
	}
	for i, b := range blocks {
		batch, err := DecodeVotes(nil, b.Raw)
		if err != nil {
			t.Fatalf("block %d raw contains non-vote bytes: %v", i, err)
		}
		if len(batch) != 1 || b.Votes != 1 {
			t.Fatalf("block %d: votes=%d len=%d, want 1", i, b.Votes, len(batch))
		}
	}
}

// TestDecodeVotesReusesBacking: a second decode into the same slice must not
// allocate a fresh one when capacity suffices, and a decode appends to what
// the slice holds.
func TestDecodeVotesReusesBacking(t *testing.T) {
	big := AppendBinaryVote(AppendBinaryVote(nil, 1, 1, true), 2, 2, false)
	small := AppendBinaryVote(nil, 3, 3, true)
	batch, err := DecodeVotes(nil, big)
	if err != nil {
		t.Fatal(err)
	}
	p := &batch[0]
	if batch, err = DecodeVotes(batch[:0], small); err != nil {
		t.Fatal(err)
	}
	if len(batch) != 1 || &batch[0] != p {
		t.Fatal("DecodeVotes reallocated the batch despite spare capacity")
	}
	if want := (votes.Vote{Item: 3, Worker: 3, Label: votes.Dirty}); batch[0] != want {
		t.Fatalf("reused decode wrong: %+v", batch)
	}
	if batch, err = DecodeVotes(batch, big); err != nil || len(batch) != 3 || batch[2].Item != 2 {
		t.Fatalf("appending decode: %+v, %v", batch, err)
	}
}

// FuzzColumnarSplit: arbitrary bytes must never panic the splitter or the
// block decoder (DecodeVotes), anything accepted must agree with the Entry
// decoder, and every accepted block's Raw must itself decode with the
// advertised count.
func FuzzColumnarSplit(f *testing.F) {
	f.Add([]byte{})
	f.Add(BinaryMagic())
	var seed bytes.Buffer
	_ = WriteBinary(&seed, genEntries(5, 40))
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:seed.Len()-1])
	// Redundant same-task 'T' mid-run.
	withT := append(append([]byte{}, seed.Bytes()...), binOpTask, 0x00)
	f.Add(AppendBinaryVote(withT, 7, -1, true))
	// Varint edge: maximal in-range item key and worker.
	f.Add(AppendBinaryVote(BinaryMagic(), 1<<31-1, -1<<31, true))
	f.Fuzz(func(t *testing.T, data []byte) {
		blocks, err := SplitBinaryTasks(data)
		if err != nil {
			// Structural rejection must agree with the Entry decoder.
			if _, err2 := ReadBinary(bytes.NewReader(data)); err2 == nil {
				t.Fatalf("split rejected (%v) what ReadBinary accepts", err)
			}
			return
		}
		entries, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("split accepted what ReadBinary rejects: %v", err)
		}
		var batch []votes.Vote
		n := 0
		for _, b := range blocks {
			if batch, err = DecodeVotes(batch[:0], b.Raw); err != nil {
				t.Fatalf("accepted block failed to decode: %v", err)
			}
			if len(batch) != b.Votes {
				t.Fatalf("block advertises %d votes, decodes %d", b.Votes, len(batch))
			}
			for _, v := range batch {
				e := entries[n]
				if e.Task != int(b.Task) || e.Item != v.Item || e.Worker != v.Worker || e.Dirty != (v.Label == votes.Dirty) {
					t.Fatalf("vote %d: block %d/%+v, entry %+v", n, b.Task, v, e)
				}
				n++
			}
		}
		if n != len(entries) {
			t.Fatalf("block path yields %d votes, Entry path %d", n, len(entries))
		}
	})
}
