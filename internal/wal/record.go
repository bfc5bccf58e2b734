package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"dqm/internal/votelog"
	"dqm/internal/votes"
)

// Record opcodes. A frame payload is a sequence of these.
const (
	// opVote is one vote: uvarint(item<<1 | dirty), zigzag-varint(worker).
	// Earlier builds wrote it for every vote of a JSON or library batch; it
	// stays readable so their data dirs recover, but nothing writes it now.
	opVote   byte = 0x01
	opEnd    byte = 0x02 // task boundary
	opReset  byte = 0x03 // clear all session state
	opWindow byte = 0x04 // uvarint(start): window rotation sealed at this task boundary
	// opColumns is uvarint(len) and len bytes of raw DQMV 'V' records
	// (opcode 0x56, uvarint(item<<1|dirty), zigzag-varint(worker)), which
	// earlier builds copied from binary request bodies. Readable, never
	// written.
	opColumns byte = 0x05
	// opBlock is one vote batch, the only vote record this build writes:
	//
	//	uvarint(n<<1 | shared)
	//	zigzag-varint(worker)          only when shared: every vote's worker
	//	n × uvarint(item<<1 | dirty)   each followed by zigzag-varint(worker)
	//	                               when not shared
	//
	// A crowd task is one worker judging a batch of items, so a task's
	// votes normally share their worker and it is written once.
	opBlock byte = 0x06
)

// maxColumnsLen bounds one opColumns record; matching the frame-payload bound
// keeps a corrupt length varint from asking the decoder to slice gigabytes.
const maxColumnsLen = 1 << 26

// Hooks receives the decoded record stream during replay. Vote may reject a
// record (e.g. an out-of-population item after external tampering) and
// Window a rotation that does not match the deterministically replayed
// window state; either error aborts replay and is reported as corruption,
// not as a torn tail.
type Hooks struct {
	Vote    func(item, worker int, dirty bool) error
	EndTask func()
	Reset   func()
	// Window observes a window-rotation record: the window starting at
	// completed-task index start sealed at the task boundary logged
	// immediately before it (always in the same frame as its opEnd).
	Window func(start int64) error

	// Votes, when set, selects the batched replay path: runs of consecutive
	// votes — whatever records hold them — are decoded into Cols and
	// delivered as one batch per flush point (the next non-vote record, or
	// the end of the frame payload). A frame holds every batch staged
	// between two buffer flushes, each task's ending in opEnd, so batches
	// arrive task-sized (votes staged without a boundary join the next
	// task's), and batch order equals record order — replayed state is
	// bit-identical to the per-vote path. The rare vote
	// whose item or worker does not fit the columnar int32 domain is
	// delivered through Vote instead (after a flush, preserving order), so
	// Vote should still be set as the fallback.
	Votes func(cols *votelog.VoteColumns) error
	// Cols is the reused decode scratch for Votes; replay grows it once and
	// refills it per batch, so long journals replay without per-batch
	// allocation. Required when Votes is set.
	Cols *votelog.VoteColumns
	// Buf, when set, is the reused segment read buffer of Store.Recover:
	// each segment is read whole into *Buf, which grows only for a segment
	// larger than any before, so a caller recovering many sessions reads
	// them all through one buffer.
	Buf *[]byte
}

// zigzag maps signed onto unsigned varint-friendly integers.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// voteKey packs an item and its label into one varint key.
func voteKey(item uint64, dirty bool) uint64 {
	if dirty {
		return item<<1 | 1
	}
	return item << 1
}

// appendBlockHead opens one opBlock record of n votes; worker is written
// only when shared.
func appendBlockHead(buf []byte, n int, shared bool, worker int64) []byte {
	head := uint64(n) << 1
	if shared {
		head |= 1
	}
	buf = append(buf, opBlock)
	buf = binary.AppendUvarint(buf, head)
	if shared {
		buf = binary.AppendUvarint(buf, zigzag(worker))
	}
	return buf
}

// appendBlock appends batch as one opBlock record. The batch must not be
// empty.
func appendBlock(buf []byte, batch []votes.Vote) []byte {
	w := batch[0].Worker
	shared := true
	for _, v := range batch[1:] {
		if v.Worker != w {
			shared = false
			break
		}
	}
	buf = appendBlockHead(buf, len(batch), shared, int64(w))
	for _, v := range batch {
		buf = binary.AppendUvarint(buf, voteKey(uint64(v.Item), v.Label == votes.Dirty))
		if !shared {
			buf = binary.AppendUvarint(buf, zigzag(int64(v.Worker)))
		}
	}
	return buf
}

// appendColumnsBlock appends rows [from, to) of cols as one opBlock record.
// The range must not be empty.
func appendColumnsBlock(buf []byte, cols *votelog.VoteColumns, from, to int) []byte {
	items, workers, dirty := cols.Item[from:to], cols.Worker[from:to], cols.Dirty[from:to]
	w := workers[0]
	shared := true
	for _, x := range workers[1:] {
		if x != w {
			shared = false
			break
		}
	}
	buf = appendBlockHead(buf, len(items), shared, int64(w))
	for i, item := range items {
		buf = binary.AppendUvarint(buf, voteKey(uint64(uint32(item)), dirty[i]))
		if !shared {
			buf = binary.AppendUvarint(buf, zigzag(int64(workers[i])))
		}
	}
	return buf
}

// appendBoundary appends a task boundary when endTask is set and, when
// windowStart >= 0, the window rotation that boundary seals.
func appendBoundary(buf []byte, endTask bool, windowStart int64) []byte {
	if !endTask {
		return buf
	}
	buf = append(buf, opEnd)
	if windowStart >= 0 {
		buf = appendWindow(buf, windowStart)
	}
	return buf
}

// appendWindow appends one opWindow record.
func appendWindow(buf []byte, start int64) []byte {
	buf = append(buf, opWindow)
	return binary.AppendUvarint(buf, uint64(start))
}

// binOpVote is the DQMV binary vote opcode (internal/votelog); opColumns
// payloads are streams of exactly these records.
const binOpVote byte = 'V'

// decoder streams one record payload through Hooks. In batched mode (cols
// set) votes collect in cols until a flush point; otherwise each goes to
// h.Vote as it is decoded. Every vote record decodes through vote, so the two
// modes see one vote stream by construction.
type decoder struct {
	h    Hooks
	cols *votelog.VoteColumns
}

var (
	errVoteItem   = errors.New("wal: bad vote item varint")
	errVoteWorker = errors.New("wal: bad vote worker varint")
)

// decodeRecords streams one frame payload (or snapshot body) through h,
// selecting the batched path when h.Votes is set. Record order is preserved
// exactly — batches are contiguous runs of votes — which keeps replayed state
// bit-identical to the per-vote path.
func decodeRecords(p []byte, h Hooks) error {
	d := decoder{h: h}
	if h.Votes != nil {
		d.cols = h.Cols
		if d.cols == nil {
			// Callers pass a reused scratch; tolerate its absence at the cost
			// of one allocation per payload.
			d.cols = &votelog.VoteColumns{}
		}
		d.cols.Reset()
	}
	for len(p) > 0 {
		op := p[0]
		p = p[1:]
		var err error
		switch op {
		case opBlock:
			p, err = d.block(p)
		case opVote:
			var key, worker uint64
			if key, p, err = readKey(p); err == nil {
				if worker, p, err = readWorker(p); err == nil {
					err = d.vote(key>>1, unzigzag(worker), key&1 == 1)
				}
			}
		case opColumns:
			size, n := binary.Uvarint(p)
			if n <= 0 || size > maxColumnsLen || size > uint64(len(p)-n) {
				return fmt.Errorf("wal: bad columnar record length")
			}
			err = d.columns(p[n : n+int(size)])
			p = p[n+int(size):]
		case opEnd:
			if err = d.flush(); err == nil && h.EndTask != nil {
				h.EndTask()
			}
		case opReset:
			if err = d.flush(); err == nil && h.Reset != nil {
				h.Reset()
			}
		case opWindow:
			start, n := binary.Uvarint(p)
			if n <= 0 || start > math.MaxInt64 {
				return fmt.Errorf("wal: bad window start varint")
			}
			p = p[n:]
			if err = d.flush(); err == nil && h.Window != nil {
				err = h.Window(int64(start))
			}
		default:
			return fmt.Errorf("wal: unknown record opcode 0x%02x", op)
		}
		if err != nil {
			return err
		}
	}
	return d.flush()
}

// readKey reads one uvarint(item<<1 | dirty) whose item fits an int.
func readKey(p []byte) (uint64, []byte, error) {
	key, n := binary.Uvarint(p)
	if n <= 0 || key>>1 > math.MaxInt {
		return 0, p, errVoteItem
	}
	return key, p[n:], nil
}

// readWorker reads one zigzag-varint worker id.
func readWorker(p []byte) (uint64, []byte, error) {
	w, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, p, errVoteWorker
	}
	return w, p[n:], nil
}

// block decodes the body of one opBlock record and returns what follows it.
func (d *decoder) block(p []byte) ([]byte, error) {
	head, n := binary.Uvarint(p)
	if n <= 0 {
		return p, fmt.Errorf("wal: bad vote block header varint")
	}
	p = p[n:]
	count, shared := head>>1, head&1 == 1
	var worker int64
	if shared {
		w, rest, err := readWorker(p)
		if err != nil {
			return p, err
		}
		p, worker = rest, unzigzag(w)
	}
	// A vote takes at least one byte, two with its own worker, so a count
	// the remaining bytes cannot hold is corrupt; refusing it here keeps a
	// forged count from driving the loop or any buffer growth.
	if left := uint64(len(p)); count > left || (!shared && count > left/2) {
		return p, fmt.Errorf("wal: vote block of %d votes overruns its record", count)
	}
	for i := uint64(0); i < count; i++ {
		key, rest, err := readKey(p)
		if err != nil {
			return p, err
		}
		p = rest
		if !shared {
			w, rest, err := readWorker(p)
			if err != nil {
				return p, err
			}
			p, worker = rest, unzigzag(w)
		}
		if err := d.vote(key>>1, worker, key&1 == 1); err != nil {
			return p, err
		}
	}
	return p, nil
}

// columns decodes the raw 'V' records of one opColumns record. The records
// are votelog's wire encoding, bounded to its int32 domain.
func (d *decoder) columns(raw []byte) error {
	for len(raw) > 0 {
		if raw[0] != binOpVote {
			return fmt.Errorf("wal: columnar record: unknown vote opcode 0x%02x", raw[0])
		}
		key, n := binary.Uvarint(raw[1:])
		if n <= 0 || key>>1 > math.MaxInt32 {
			return fmt.Errorf("wal: columnar record: bad vote item varint")
		}
		raw = raw[1+n:]
		w, n := binary.Uvarint(raw)
		if n <= 0 {
			return fmt.Errorf("wal: columnar record: bad vote worker varint")
		}
		raw = raw[n:]
		worker := unzigzag(w)
		if worker < math.MinInt32 || worker > math.MaxInt32 {
			return fmt.Errorf("wal: columnar record: worker id %d out of range", worker)
		}
		if err := d.vote(key>>1, worker, key&1 == 1); err != nil {
			return err
		}
	}
	return nil
}

// vote delivers one decoded vote: into the open batch when it fits the
// columnar int32 domain, otherwise (and in per-vote mode) through h.Vote,
// after flushing the batch so order is kept.
func (d *decoder) vote(item uint64, worker int64, dirty bool) error {
	if int64(int(worker)) != worker {
		return fmt.Errorf("wal: worker id %d out of range", worker)
	}
	if d.cols != nil && item <= math.MaxInt32 && worker >= math.MinInt32 && worker <= math.MaxInt32 {
		d.cols.Append(int32(item), int32(worker), dirty)
		return nil
	}
	if err := d.flush(); err != nil {
		return err
	}
	if d.h.Vote == nil {
		return nil
	}
	return d.h.Vote(int(item), int(worker), dirty)
}

// flush delivers the open batch, if any.
func (d *decoder) flush() error {
	if d.cols == nil || d.cols.Len() == 0 {
		return nil
	}
	err := d.h.Votes(d.cols)
	d.cols.Reset()
	return err
}
