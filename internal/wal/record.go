package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

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
	// opPacked is one vote batch as the builds before opSorted wrote it. Its
	// opcode carries the bit width w of the batch's largest item:
	//
	//	0x80 | w                        w = bits.Len(largest item), 0..31
	//	uvarint(n<<2 | shared<<1 | end) end: a task boundary follows the votes
	//	zigzag-varint(worker)           only when shared: every vote's worker
	//	ceil(n·(w+1)/8) bytes           n × (item<<1 | dirty), w+1 bits each,
	//	                                least significant bit first
	//	n × zigzag-varint(worker)       only when not shared
	//
	// Readable, never written.
	opPacked byte = 0x80
	// opSorted is one vote batch, the only vote record this build writes:
	// its votes stable-sorted by item, each item written as its gap from
	// the one before (the first from 0) in a Rice code of parameter k,
	// which the opcode carries:
	//
	//	0xa0 | k                        k minimizes the record, 0..30
	//	uvarint(n<<2 | shared<<1 | end) end: a task boundary follows the votes
	//	zigzag-varint(worker)           only when shared: every vote's worker
	//	n × (gap, dirty)                gap>>k zero bits, a one bit, gap's
	//	                                low k bits, then the dirty bit; least
	//	                                significant bit first, padded to a byte
	//	n × zigzag-varint(worker)       only when not shared, in sorted order
	//
	// A crowd task is one worker judging a batch of items, so a task's votes
	// normally share their worker, and the boundary that ends the task
	// folds into the record's head. A bare boundary stays opEnd. The order
	// of different items within a batch is not kept: no session state
	// depends on it (see decodeRecords).
	opSorted byte = 0xa0
	// opRecordMask selects the bits that mark an opPacked or opSorted
	// opcode; the rest hold w or k.
	opRecordMask byte = 0xe0
	// maxRiceParam is the largest k of an opSorted record. A gap is below
	// 2^31, so a larger k never makes a record shorter.
	maxRiceParam = 30
)

// maxSortedVotes bounds one opSorted record: appendSorted sorts a batch by
// keys that hold each vote's index in 32 bits.
const maxSortedVotes = 1<<32 - 1

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
	// task-sized (votes staged without a boundary join the next task's).
	// Records arrive in order, and each record's votes in the order it
	// stores them: an opSorted record's by item, every item's own votes in
	// the order they were staged, and older records' in the order staged.
	// That is all replay needs (see decodeRecords). The batch is the
	// decoder's scratch, valid only during the call. When Votes is nil,
	// votes are decoded and dropped.
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

// errItemTooWide refuses a vote whose item lies outside [0, 2^31), the range
// a journal record holds. No session can send one (populations are capped
// far below it); the encoder refuses it rather than truncate it, and stages
// nothing.
var errItemTooWide = errors.New("wal: vote item does not fit the 31 bits a journal record holds")

// appendRecordHead opens one opPacked or opSorted record of n votes; worker
// is written only when shared.
func appendRecordHead(buf []byte, op byte, n int, shared bool, worker int64, end bool) []byte {
	head := uint64(n) << 2
	if shared {
		head |= 2
	}
	if end {
		head |= 1
	}
	buf = append(buf, op)
	buf = binary.AppendUvarint(buf, head)
	if shared {
		buf = binary.AppendUvarint(buf, zigzag(worker))
	}
	return buf
}

// bitWriter packs a bit stream into out, least significant bit first. out
// must hold exactly the bytes the stream takes; whole 32-bit words are
// written as they fill, and done writes the rest.
type bitWriter struct {
	out []byte
	k   int    // bytes of out written
	acc uint64 // bits not yet written, in its low n bits
	n   uint
}

// newBitWriter grows buf by the bytes a stream of nbits takes, and returns
// the grown buffer and a bitWriter over those bytes.
func newBitWriter(buf []byte, nbits uint64) ([]byte, bitWriter) {
	size := int((nbits + 7) / 8)
	buf = slices.Grow(buf, size)
	at := len(buf)
	buf = buf[:at+size]
	return buf, bitWriter{out: buf[at:]}
}

// put appends the low width bits of v, width at most 32.
func (b *bitWriter) put(v uint64, width uint) {
	b.acc |= v << b.n
	b.n += width
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

// keyScratch pools the keys appendSorted sorts, so no journal keeps a scratch
// of its own between batches.
var keyScratch = sync.Pool{New: func() any { return new([]uint64) }}

// Fields of a sort key: item<<keyItemShift | index<<1 | dirty. The index
// makes every key distinct, so sorting the keys sorts the batch stably.
const keyItemShift = 33

// sortKeys sorts keys: by insertion up to 48 keys, by slices.Sort beyond.
// On random keys insertion sorts 20 or 48 keys about 1.4x as fast as
// slices.Sort and stays ahead up to about 200, which makes a bench task's
// record about 1.4x as fast to encode. On keys in descending order its
// moves grow with the square of the count: at 48 keys that costs no more
// than a random batch, at 192 sixty times what slices.Sort takes
// (BENCHMARKS.md, "Sorted, Rice-coded vote records").
func sortKeys(keys []uint64) {
	if len(keys) > 48 {
		slices.Sort(keys)
		return
	}
	for i := 1; i < len(keys); i++ {
		key, j := keys[i], i
		for ; j > 0 && keys[j-1] > key; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = key
	}
}

// gapQuotients returns the sum over sorted keys of each item's gap from the
// one before, shifted right by k: the zero bits of the record's unary parts.
func gapQuotients(keys []uint64, k uint) uint64 {
	var q, prev uint64
	for _, key := range keys {
		item := key >> keyItemShift
		q += (item - prev) >> k
		prev = item
	}
	return q
}

// riceParam returns the smallest k that minimizes the bits the sorted keys
// take as Rice-coded gaps, and those bits. Each vote takes k+2 bits besides
// its unary zeros, so the bits are convex in k: the search starts at the
// mean gap's width and walks downhill.
func riceParam(keys []uint64) (uint, uint64) {
	n := uint64(len(keys))
	cost := func(k uint) uint64 { return n*(uint64(k)+2) + gapQuotients(keys, k) }
	k := min(uint(bits.Len64(keys[len(keys)-1]>>keyItemShift/n)), maxRiceParam)
	c := cost(k)
	down := false
	for k > 0 {
		d := cost(k - 1)
		if d > c {
			break
		}
		k, c, down = k-1, d, true
	}
	for !down && k < maxRiceParam {
		d := cost(k + 1)
		if d >= c {
			break
		}
		k, c = k+1, d
	}
	return k, c
}

// appendSorted appends batch as one opSorted record, with the task boundary
// that follows it folded in when end is set. The batch must not be empty,
// and is not modified: the record is written from a sorted copy of its keys.
// An item outside [0, 2^31) fails with errItemTooWide, and a batch of more
// than maxSortedVotes votes with ErrBatchTooLarge; either leaves buf as it
// was.
func appendSorted(buf []byte, batch []votes.Vote, end bool) ([]byte, error) {
	if uint64(len(batch)) > maxSortedVotes {
		return buf, ErrBatchTooLarge
	}
	pooled := keyScratch.Get().(*[]uint64)
	defer keyScratch.Put(pooled)
	keys := (*pooled)[:0]
	w := batch[0].Worker
	shared := true
	for i, v := range batch {
		if uint(v.Item) > math.MaxInt32 {
			return buf, fmt.Errorf("%w: item %d", errItemTooWide, v.Item)
		}
		key := uint64(v.Item)<<keyItemShift | uint64(i)<<1
		if v.Label == votes.Dirty {
			key |= 1
		}
		keys = append(keys, key)
		shared = shared && v.Worker == w
	}
	*pooled = keys
	sortKeys(keys)
	k, nbits := riceParam(keys)
	buf = appendRecordHead(buf, opSorted|byte(k), len(keys), shared, int64(w), end)
	buf, bw := newBitWriter(buf, nbits)
	low := uint64(1)<<k - 1
	var prev uint64
	for _, key := range keys {
		item := key >> keyItemShift
		gap := item - prev
		prev = item
		// q zero bits, the one that ends them, the remainder, the dirty bit.
		q := gap >> k
		for ; q+uint64(k) > 30; q -= min(q, 32) {
			bw.put(0, uint(min(q, 32)))
		}
		bw.put((1|(gap&low)<<1|(key&1)<<(k+1))<<q, uint(q)+k+2)
	}
	bw.done()
	if !shared {
		for _, key := range keys {
			buf = binary.AppendUvarint(buf, zigzag(int64(batch[uint32(key>>1)].Worker)))
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
// Records replay in order, and within a run of votes between two task
// boundaries, each item's votes replay in the order they were journaled;
// votes of different items may change places, since an opSorted record
// stores its batch sorted by item. That keeps replayed state bit-identical
// to the stream that was journaled: every row, fingerprint, switch ledger,
// worker set and count a session keeps is a function of each item's own vote
// sequence, and SWITCH's trend and the window rotations read only per-task
// totals, taken at the boundaries, which replay in place.
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
		switch op & opRecordMask {
		case opSorted:
			if p, err = d.sorted(p, uint(op&^opRecordMask)); err != nil {
				return err
			}
			continue
		case opPacked:
			if p, err = d.packed(p, uint(op&^opRecordMask)); err != nil {
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

// sorted decodes the body of one opSorted record of Rice parameter k (its
// opcode's low bits) and returns what follows it. The votes join the batch
// in the record's order, sorted by item.
func (d *decoder) sorted(p []byte, k uint) ([]byte, error) {
	if k > maxRiceParam {
		return p, fmt.Errorf("wal: sorted vote record with Rice parameter %d", k)
	}
	head, n := binary.Uvarint(p)
	if n <= 0 {
		return p, fmt.Errorf("wal: bad sorted vote header varint")
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
		if err := checkWorker(worker); err != nil {
			return p, err
		}
	}
	// A vote takes at least k+2 bits (the one bit that ends its unary part,
	// its remainder and its dirty bit), and a byte for its worker when not
	// shared, so a count the remaining bytes cannot hold is corrupt;
	// refusing it before any vote is decoded keeps a forged count from
	// driving the loop or any buffer growth. The bit stream may not reach
	// into the workers' bytes.
	room := uint64(len(p))
	if !shared {
		room -= min(count, room)
	}
	if count > 8*room/(uint64(k)+2) {
		return p, fmt.Errorf("wal: sorted block of %d votes overruns its record", count)
	}
	at := len(d.batch)
	var out []votes.Vote // the votes decoded here; nil when they are dropped
	if d.h.Votes != nil {
		d.batch = slices.Grow(d.batch, int(count))
		out = d.batch[at : at+int(count)]
	}
	br := bitReader{p: p[:room]}
	var item uint64
	for i := range count {
		q, v, ok := br.next(k)
		if !ok {
			return p, fmt.Errorf("wal: sorted block of %d votes overruns its record", count)
		}
		if item += q<<k | v&(1<<k-1); q > math.MaxInt32 || item > math.MaxInt32 {
			return p, fmt.Errorf("wal: sorted block's items pass 2^31-1")
		}
		if out != nil {
			out[i] = votes.Vote{Item: int(item), Worker: int(worker), Label: votes.Label(v >> k)}
		}
	}
	p = p[br.used():]
	if !shared {
		for i := range count {
			w, rest, err := readWorker(p)
			if err != nil {
				return p, err
			}
			p, worker = rest, unzigzag(w)
			if err := checkWorker(worker); err != nil {
				return p, err
			}
			if out != nil {
				out[i].Worker = int(worker)
			}
		}
	}
	d.batch = d.batch[:at+len(out)]
	if end {
		return p, d.endTask()
	}
	return p, nil
}

// bitReader reads a bit stream least significant bit first. acc holds the
// stream's next n bits in its low bits, and above them, possibly, some of
// the bits that follow: those are never counted twice, because a refill
// ORs the same bytes into the same places.
type bitReader struct {
	p   []byte
	off int // bytes of p loaded into acc
	acc uint64
	n   uint
}

// refill loads bytes of p into acc until it holds at least 57 bits or p
// is exhausted.
func (r *bitReader) refill() {
	if r.n > 56 {
		return
	}
	if r.off+8 > len(r.p) {
		r.refillTail()
		return
	}
	r.acc |= binary.LittleEndian.Uint64(r.p[r.off:]) << r.n
	r.off += int(63-r.n) >> 3
	r.n |= 56 // n + 8 × the bytes just counted
}

// refillTail is refill within the last 8 bytes of p, a byte at a time.
func (r *bitReader) refillTail() {
	for ; r.n <= 56 && r.off < len(r.p); r.off, r.n = r.off+1, r.n+8 {
		r.acc |= uint64(r.p[r.off]) << r.n
	}
}

// next reads one vote of an opSorted record of Rice parameter k: its gap's
// unary part, whose length q it returns, and then v, the gap's low k bits
// with the dirty bit above them. ok is false when the stream ends first.
// A vote that lies wholly in acc, as almost every vote does, is read with
// one shift; that path decodes a bench task's votes about 1.4x as fast as
// unary and read alone, and boots a store 1.1 to 1.2x as fast (BENCHMARKS.md,
// "Sorted, Rice-coded vote records").
func (r *bitReader) next(k uint) (q, v uint64, ok bool) {
	r.refill()
	z := uint(bits.TrailingZeros64(r.acc))
	if w := z + k + 2; w <= r.n {
		v = r.acc >> (z + 1) & (1<<(k+1) - 1)
		r.acc >>= w
		r.n -= w
		return uint64(z), v, true
	}
	if q, ok = r.unary(); ok {
		v, ok = r.read(k + 1)
	}
	return q, v, ok
}

// unary reads zero bits up to the one bit that ends them and returns how
// many there were; ok is false when the stream ends first.
func (r *bitReader) unary() (q uint64, ok bool) {
	for {
		r.refill()
		if z := uint(bits.TrailingZeros64(r.acc)); z < r.n {
			r.acc >>= z + 1
			r.n -= z + 1
			return q + uint64(z), true
		}
		if r.n == 0 {
			return q, false
		}
		q += uint64(r.n)
		r.acc >>= r.n
		r.n = 0
	}
}

// read reads the next w bits, w at most 32; ok is false when the stream
// ends first.
func (r *bitReader) read(w uint) (v uint64, ok bool) {
	if r.n < w {
		if r.refill(); r.n < w {
			return 0, false
		}
	}
	v = r.acc & (1<<w - 1)
	r.acc >>= w
	r.n -= w
	return v, true
}

// used returns the bytes of p the bits read so far take.
func (r *bitReader) used() int { return (8*r.off - int(r.n) + 7) / 8 }

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
	if err := checkWorker(worker); err != nil {
		return err
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

// checkWorker refuses a worker id an int cannot hold.
func checkWorker(worker int64) error {
	if int64(int(worker)) != worker {
		return fmt.Errorf("wal: worker id %d out of range", worker)
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
