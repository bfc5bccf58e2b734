package wal

import (
	"encoding/binary"

	"dqm/internal/votes"
)

// Writers for the vote records earlier builds emitted. This build writes
// neither opVote nor opColumns, but every data dir those builds wrote must
// still recover, so tests build such journals with these.

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

// commitPayload commits payload, a record stream in any encoding, to j as
// one frame.
func commitPayload(j *Journal, payload []byte) error {
	if err := j.lock(); err != nil {
		return err
	}
	return j.stageCommit(payload)
}
