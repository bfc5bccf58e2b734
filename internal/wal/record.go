package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

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
	// opBlock is one vote batch as the builds before opPacked wrote it:
	//
	//	uvarint(n<<1 | shared)
	//	zigzag-varint(worker)          only when shared: every vote's worker
	//	n × uvarint(item<<1 | dirty)   each followed by zigzag-varint(worker)
	//	                               when not shared
	//
	// Readable, never written.
	opBlock byte = 0x06
	// opPacked is one vote batch, the only vote record this build writes.
	// Its opcode carries the bit width w of the batch's largest item, so a
	// record decodes without meta.json:
	//
	//	0x80 | w                        w = bits.Len(largest item), 0..31
	//	uvarint(n<<2 | shared<<1 | end) end: a task boundary follows the votes
	//	zigzag-varint(worker)           only when shared: every vote's worker
	//	ceil(n·(w+1)/8) bytes           n × (item<<1 | dirty), w+1 bits each,
	//	                                least significant bit first
	//	n × zigzag-varint(worker)       only when not shared
	//
	// A crowd task is one worker judging a batch of items, so a task's votes
	// normally share their worker, and the boundary that ends the task
	// folds into the record's head. A bare boundary stays opEnd.
	opPacked byte = 0x80
	// opPackedMask selects the bits that mark an opPacked opcode; the rest
	// hold w.
	opPackedMask byte = 0xe0
	// maxPackedWidth is the widest item an opPacked record holds, in bits.
	maxPackedWidth = 31
)

// maxColumnsLen bounds one opColumns record; matching the frame-payload bound
// keeps a corrupt length varint from asking the decoder to slice gigabytes.
const maxColumnsLen = 1 << 26

// Hooks receives the decoded record stream during replay. Votes may reject
// a batch (e.g. an out-of-population item after external tampering) and
// Window a rotation that does not match the deterministically replayed
// window state; either error aborts replay and is reported as corruption,
// not as a torn tail.
type Hooks struct {
	// Votes receives runs of consecutive votes — whatever records hold them
	// — as one batch per flush point: a task boundary, whether an opEnd or
	// folded into a vote record, any other non-vote record, or the end of
	// the frame payload. A frame holds every batch staged between two
	// buffer flushes, each task's ending in a boundary, so batches arrive
	// task-sized (votes staged without a boundary join the next task's), in
	// record order. The batch is the decoder's scratch, valid only during
	// the call. When Votes is nil, votes are decoded and dropped.
	Votes   func(batch []votes.Vote) error
	EndTask func()
	Reset   func()
	// Window observes a window-rotation record: the window starting at
	// completed-task index start sealed at the task boundary logged
	// immediately before it (always in the same frame as that boundary).
	Window func(start int64) error

	// Batch, when set, is the reused decode scratch for Votes: replay grows
	// it once and refills it per batch, so long journals replay without
	// per-batch allocation.
	Batch *[]votes.Vote
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

// voteKey packs an item and its label into one key.
func voteKey(item uint64, dirty bool) uint64 {
	if dirty {
		return item<<1 | 1
	}
	return item << 1
}

// errItemTooWide refuses a vote whose item lies outside [0, 2^31), the range
// an opPacked record holds. No session can send one (populations are capped
// far below it); the encoder refuses it rather than truncate it, and stages
// nothing.
var errItemTooWide = errors.New("wal: vote item does not fit the 31 bits a journal record holds")

// appendPackedHead opens one opPacked record of n votes whose items take
// width bits; worker is written only when shared.
func appendPackedHead(buf []byte, width, n int, shared bool, worker int64, end bool) []byte {
	head := uint64(n) << 2
	if shared {
		head |= 2
	}
	if end {
		head |= 1
	}
	buf = append(buf, opPacked|byte(width))
	buf = binary.AppendUvarint(buf, head)
	if shared {
		buf = binary.AppendUvarint(buf, zigzag(worker))
	}
	return buf
}

// bitWriter packs keys of kw bits each into out, least significant bit
// first. out must hold exactly the ceil(n·kw/8) bytes n keys take; whole
// 32-bit words are written as they fill, and done writes the rest.
type bitWriter struct {
	out []byte
	k   int    // bytes of out written
	acc uint64 // bits not yet written, in its low n bits
	n   uint
	kw  uint // bits a key takes
}

// newBitWriter grows buf by the bytes n keys of kw bits take, and returns the
// grown buffer and a bitWriter over those bytes.
func newBitWriter(buf []byte, n int, kw uint) ([]byte, bitWriter) {
	size := (n*int(kw) + 7) / 8
	buf = slices.Grow(buf, size)
	at := len(buf)
	buf = buf[:at+size]
	return buf, bitWriter{out: buf[at:], kw: kw}
}

// put packs one key.
func (b *bitWriter) put(key uint64) {
	b.acc |= key << b.n
	b.n += b.kw
	if b.n >= 32 {
		binary.LittleEndian.PutUint32(b.out[b.k:], uint32(b.acc))
		b.k += 4
		b.acc >>= 32
		b.n -= 32
	}
}

// done writes the bits still held, filling out.
func (b *bitWriter) done() {
	for ; b.k < len(b.out); b.k++ {
		b.out[b.k] = byte(b.acc)
		b.acc >>= 8
	}
}

// appendPacked appends batch as one opPacked record, with the task boundary
// that follows it folded in when end is set. The batch must not be empty. An
// item outside [0, 2^31) fails with errItemTooWide and leaves buf as it was.
func appendPacked(buf []byte, batch []votes.Vote, end bool) ([]byte, error) {
	w := batch[0].Worker
	shared := true
	var top uint64
	for _, v := range batch {
		top |= uint64(v.Item)
		shared = shared && v.Worker == w
	}
	width := bits.Len64(top) // the largest item's: top has its highest bit
	if width > maxPackedWidth {
		i := slices.IndexFunc(batch, func(v votes.Vote) bool { return uint64(v.Item) > math.MaxInt32 })
		return buf, fmt.Errorf("%w: item %d", errItemTooWide, batch[i].Item)
	}
	buf = appendPackedHead(buf, width, len(batch), shared, int64(w), end)
	buf, bw := newBitWriter(buf, len(batch), uint(width)+1)
	for _, v := range batch {
		bw.put(voteKey(uint64(v.Item), v.Label == votes.Dirty))
	}
	bw.done()
	if !shared {
		for _, v := range batch {
			buf = binary.AppendUvarint(buf, zigzag(int64(v.Worker)))
		}
	}
	return buf, nil
}

// appendTaskEnd appends what follows a batch's votes when endTask is set: the
// task boundary as opEnd unless the batch's vote record folded it in, then,
// when windowStart >= 0, the window rotation that boundary seals.
func appendTaskEnd(buf []byte, endTask, folded bool, windowStart int64) []byte {
	if !endTask {
		return buf
	}
	if !folded {
		buf = append(buf, opEnd)
	}
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

// decoder streams one record payload through Hooks: votes collect in batch
// until a flush point delivers them to h.Votes.
type decoder struct {
	h     Hooks
	batch []votes.Vote
}

var (
	errVoteItem   = errors.New("wal: bad vote item varint")
	errVoteWorker = errors.New("wal: bad vote worker varint")
)

// decodeRecords streams one frame payload (or snapshot body) through h.
// Record order is preserved exactly — batches are contiguous runs of votes —
// which keeps replayed state bit-identical to the stream that was journaled.
func decodeRecords(p []byte, h Hooks) error {
	d := decoder{h: h}
	if h.Batch != nil {
		d.batch = (*h.Batch)[:0]
	}
	err := d.records(p)
	if h.Batch != nil {
		*h.Batch = d.batch[:0]
	}
	return err
}

// records decodes every record of p.
func (d *decoder) records(p []byte) error {
	for len(p) > 0 {
		op := p[0]
		p = p[1:]
		var err error
		if op&opPackedMask == opPacked {
			if p, err = d.packed(p, uint(op&^opPackedMask)); err != nil {
				return err
			}
			continue
		}
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
			err = d.endTask()
		case opReset:
			if err = d.flush(); err == nil && d.h.Reset != nil {
				d.h.Reset()
			}
		case opWindow:
			start, n := binary.Uvarint(p)
			if n <= 0 || start > math.MaxInt64 {
				return fmt.Errorf("wal: bad window start varint")
			}
			p = p[n:]
			if err = d.flush(); err == nil && d.h.Window != nil {
				err = d.h.Window(int64(start))
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

// packed decodes the body of one opPacked record whose items take width bits
// (its opcode's low bits) and returns what follows it.
func (d *decoder) packed(p []byte, width uint) ([]byte, error) {
	head, n := binary.Uvarint(p)
	if n <= 0 {
		return p, fmt.Errorf("wal: bad packed vote header varint")
	}
	p = p[n:]
	count, shared, end := head>>2, head&2 != 0, head&1 != 0
	var worker int64
	if shared {
		w, rest, err := readWorker(p)
		if err != nil {
			return p, err
		}
		p, worker = rest, unzigzag(w)
	}
	// The votes take count·(width+1) bits, and a byte each at least for
	// their workers when not shared, so a count the remaining bytes cannot
	// hold is corrupt; refusing it before any vote is decoded keeps a forged
	// count from driving the loop or any buffer growth. A key takes at least
	// one bit, so count is bounded first and the product cannot overflow.
	kw := uint64(width) + 1
	left := uint64(len(p))
	size := uint64(math.MaxUint64)
	if count <= 8*left {
		size = (count*kw + 7) / 8
	}
	if size > left || (!shared && count > left-size) {
		return p, fmt.Errorf("wal: packed block of %d votes overruns its record", count)
	}
	keys := p[:size]
	p = p[size:]
	mask := uint64(1)<<kw - 1
	var acc, have uint64 // bits read from keys and not yet consumed
	k := 0
	for i := uint64(0); i < count; i++ {
		if have < kw {
			if k+4 <= len(keys) {
				acc |= uint64(binary.LittleEndian.Uint32(keys[k:])) << have
				k, have = k+4, have+32
			} else {
				for ; have < kw; k, have = k+1, have+8 {
					acc |= uint64(keys[k]) << have
				}
			}
		}
		key := acc & mask
		acc >>= kw
		have -= kw
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
	if end {
		return p, d.endTask()
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

// vote adds one decoded vote to the open batch, or drops it when no Votes
// hook is set.
func (d *decoder) vote(item uint64, worker int64, dirty bool) error {
	if int64(int(worker)) != worker {
		return fmt.Errorf("wal: worker id %d out of range", worker)
	}
	if d.h.Votes != nil {
		label := votes.Clean
		if dirty {
			label = votes.Dirty
		}
		d.batch = append(d.batch, votes.Vote{Item: int(item), Worker: int(worker), Label: label})
	}
	return nil
}

// endTask delivers the open batch, then a task boundary.
func (d *decoder) endTask() error {
	if err := d.flush(); err != nil {
		return err
	}
	if d.h.EndTask != nil {
		d.h.EndTask()
	}
	return nil
}

// flush delivers the open batch, if any.
func (d *decoder) flush() error {
	if len(d.batch) == 0 {
		return nil
	}
	err := d.h.Votes(d.batch)
	d.batch = d.batch[:0]
	return err
}
