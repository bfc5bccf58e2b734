package votelog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// Columnar access to the binary (DQMV) vote-log encoding: the ingest hot path
// hands raw 'V'-record bytes from the wire straight to the write-ahead
// journal and decodes them once into parallel item/worker/dirty columns for
// matrix application — no per-vote materialization of Entry structs, no
// per-vote re-encode into a second wire format.

// VoteColumns is one decoded columnar vote batch: parallel slices, one row
// per vote. The backing arrays are reused across Decode calls, so a
// long-lived ingest path decodes batches without allocating after warmup.
type VoteColumns struct {
	Item   []int32
	Worker []int32
	Dirty  []bool
}

// Len returns the number of votes in the batch.
func (c *VoteColumns) Len() int { return len(c.Item) }

// Reset empties the columns, keeping capacity.
func (c *VoteColumns) Reset() {
	c.Item = c.Item[:0]
	c.Worker = c.Worker[:0]
	c.Dirty = c.Dirty[:0]
}

// Decode resets the columns and fills them from raw 'V' records (the DQMV
// vote encoding, without the file magic or 'T' task records — exactly the
// per-task byte ranges SplitBinaryTasks returns). It validates the encoding;
// range-checking items against a population is the caller's job, because only
// the caller knows N.
func (c *VoteColumns) Decode(raw []byte) error {
	c.Reset()
	return c.DecodeAppend(raw)
}

// DecodeAppend is Decode without the reset: decoded votes append to whatever
// the columns already hold. WAL replay uses it to accumulate consecutive vote
// records (plain and columnar alike) into one task-sized batch before
// applying them — the batching that makes recovery look like columnar ingest
// rather than a stream of single-vote appends.
func (c *VoteColumns) DecodeAppend(raw []byte) error {
	for len(raw) > 0 {
		if raw[0] != binOpVote {
			return fmt.Errorf("votelog: columnar batch: vote %d: unknown opcode 0x%02x", len(c.Item), raw[0])
		}
		raw = raw[1:]
		key, n := binary.Uvarint(raw)
		if n <= 0 || key>>1 > math.MaxInt32 {
			return fmt.Errorf("votelog: columnar batch: vote %d: bad item", len(c.Item))
		}
		raw = raw[n:]
		w, n := binary.Uvarint(raw)
		if n <= 0 {
			return fmt.Errorf("votelog: columnar batch: vote %d: bad worker", len(c.Item))
		}
		raw = raw[n:]
		worker := unzigzag(w)
		if worker < math.MinInt32 || worker > math.MaxInt32 {
			return fmt.Errorf("votelog: columnar batch: vote %d: worker id %d out of range", len(c.Item), worker)
		}
		c.Item = append(c.Item, int32(key>>1))
		c.Worker = append(c.Worker, int32(worker))
		c.Dirty = append(c.Dirty, key&1 == 1)
	}
	return nil
}

// Append appends one already-decoded vote row — the path single opVote WAL
// records take into a replay batch, where there are no wire bytes to decode.
func (c *VoteColumns) Append(item, worker int32, dirty bool) {
	c.Item = append(c.Item, item)
	c.Worker = append(c.Worker, worker)
	c.Dirty = append(c.Dirty, dirty)
}

// AppendBinaryVote appends one raw 'V' record — the building block for
// constructing columnar batches (tests, load generators) without an []Entry
// detour.
func AppendBinaryVote(buf []byte, item, worker int32, dirty bool) []byte {
	buf = append(buf, binOpVote)
	key := uint64(uint32(item)) << 1
	if dirty {
		key |= 1
	}
	buf = binary.AppendUvarint(buf, key)
	return binary.AppendUvarint(buf, zigzag(int64(worker)))
}

// TaskBlock is one task's slice of a binary vote log: the task id and the raw
// 'V'-record bytes of its votes, aliasing the input (zero-copy). A task ends
// where the next block carries a different task id (or at the end of the
// stream) — the same boundary rule as Replay, so consumers that map blocks to
// task boundaries reproduce exactly the estimates the Entry path yields.
type TaskBlock struct {
	Task int32
	Raw  []byte
	// Votes is the number of 'V' records in Raw (counted during the split,
	// so batch-size limits need no second decode pass).
	Votes int
}

// BinaryMagic returns the 5-byte header of the binary vote-log format
// (callers framing or sniffing DQMV request bodies).
func BinaryMagic() []byte { return append([]byte(nil), binaryMagic...) }

// ContentTypeDQMV is the HTTP media type under which the binary vote-log
// encoding travels (dqm-serve's votes endpoint, the benchmark's DQMV writer).
const ContentTypeDQMV = "application/x-dqmv"

// SplitBinaryTasks splits a full binary vote log (magic header included) into
// per-task blocks without decoding votes into structs: each block's Raw is a
// subslice of data holding only 'V' records, ready to be journaled verbatim
// as one columnar WAL record. The stream is validated structurally (header,
// opcodes, varints, int32 bounds); item-vs-population range checks remain the
// caller's.
func SplitBinaryTasks(data []byte) ([]TaskBlock, error) {
	if len(data) < len(binaryMagic) || !bytes.Equal(data[:len(binaryMagic)], binaryMagic) {
		return nil, fmt.Errorf("votelog: bad binary header (want magic %q version %d)", binaryMagic[:4], binaryMagic[4])
	}
	p := data[len(binaryMagic):]
	var blocks []TaskBlock
	task := int64(0)
	voteStart := -1 // offset in p where the current run of 'V' records began
	runVotes := 0   // 'V' records in the current run
	flush := func(end int) {
		if voteStart >= 0 {
			blocks = append(blocks, TaskBlock{Task: int32(task), Raw: p[voteStart:end], Votes: runVotes})
			voteStart = -1
			runVotes = 0
		}
	}
	off := 0
	nvotes := 0
	for off < len(p) {
		switch p[off] {
		case binOpTask:
			d, n := binary.Uvarint(p[off+1:])
			if n <= 0 {
				return nil, fmt.Errorf("votelog: vote %d: bad task delta", nvotes)
			}
			t := task + unzigzag(d)
			if t < math.MinInt32 || t > math.MaxInt32 {
				return nil, fmt.Errorf("votelog: vote %d: task id %d out of range", nvotes, t)
			}
			if t != task {
				flush(off)
				task = t
			} else if voteStart >= 0 {
				// A redundant same-task record would otherwise embed its own
				// bytes in the run; seal the run here (same task id, so the
				// block boundary does not become a task boundary).
				flush(off)
			}
			off += 1 + n
		case binOpVote:
			key, n1 := binary.Uvarint(p[off+1:])
			if n1 <= 0 || key>>1 > math.MaxInt32 {
				return nil, fmt.Errorf("votelog: vote %d: bad item", nvotes)
			}
			w, n2 := binary.Uvarint(p[off+1+n1:])
			if n2 <= 0 {
				return nil, fmt.Errorf("votelog: vote %d: bad worker", nvotes)
			}
			if wk := unzigzag(w); wk < math.MinInt32 || wk > math.MaxInt32 {
				return nil, fmt.Errorf("votelog: vote %d: worker id %d out of range", nvotes, wk)
			}
			if voteStart < 0 {
				voteStart = off
			}
			off += 1 + n1 + n2
			nvotes++
			runVotes++
		default:
			return nil, fmt.Errorf("votelog: vote %d: unknown opcode 0x%02x", nvotes, p[off])
		}
	}
	flush(len(p))
	return blocks, nil
}
