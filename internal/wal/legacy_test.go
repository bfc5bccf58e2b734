package wal

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"dqm/internal/votes"
)

// Writers for the vote records earlier builds emitted. This build writes
// none of opVote, opColumns, opBlock and opPacked, but every data dir those
// builds wrote must still recover, so tests build such journals with these.

// voteKey packs an item and its label into one key.
func voteKey(item uint64, dirty bool) uint64 {
	if dirty {
		return item<<1 | 1
	}
	return item << 1
}

// appendVote appends one opVote record.
func appendVote(buf []byte, v votes.Vote) []byte {
	buf = append(buf, opVote)
	buf = binary.AppendUvarint(buf, voteKey(uint64(v.Item), v.Label == votes.Dirty))
	return binary.AppendUvarint(buf, zigzag(int64(v.Worker)))
}

// appendColumns appends one opColumns record wrapping raw DQMV 'V' records.
func appendColumns(buf []byte, raw []byte) []byte {
	buf = append(buf, opColumns)
	buf = binary.AppendUvarint(buf, uint64(len(raw)))
	return append(buf, raw...)
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

// appendPacked appends batch as one opPacked record, as the builds before
// opSorted wrote it, with the task boundary that follows it folded in when
// end is set. The batch must not be empty. An item outside [0, 2^31) fails
// with errItemTooWide and leaves buf as it was.
func appendPacked(buf []byte, batch []votes.Vote, end bool) ([]byte, error) {
	w := batch[0].Worker
	shared := true
	var top uint64
	for _, v := range batch {
		top |= uint64(v.Item)
		shared = shared && v.Worker == w
	}
	width := bits.Len64(top) // the largest item's: top has its highest bit
	if width > 31 {
		i := slices.IndexFunc(batch, func(v votes.Vote) bool { return uint64(v.Item) > math.MaxInt32 })
		return buf, fmt.Errorf("%w: item %d", errItemTooWide, batch[i].Item)
	}
	buf = appendRecordHead(buf, opPacked|byte(width), len(batch), shared, int64(w), end)
	kw := uint(width) + 1
	buf, bw := newBitWriter(buf, uint64(len(batch))*uint64(kw))
	for _, v := range batch {
		bw.put(voteKey(uint64(v.Item), v.Label == votes.Dirty), kw)
	}
	bw.done()
	if !shared {
		for _, v := range batch {
			buf = binary.AppendUvarint(buf, zigzag(int64(v.Worker)))
		}
	}
	return buf, nil
}

// commitPayload stages payload, a record stream in any encoding, into j's
// open frame as one batch and commits it.
func commitPayload(j *Journal, payload []byte) error {
	if err := j.lock(); err != nil {
		return err
	}
	buf := j.openFrame()
	j.wbuf = append(buf, payload...)
	if err := j.staged(time.Now(), len(buf)); err != nil {
		return err
	}
	return j.Commit()
}
