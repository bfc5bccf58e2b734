package main

import (
	"encoding/binary"
	"strconv"

	"dqm"
)

// Wire encoders for vote batches. The benchmark speaks only the public HTTP
// API, so it carries its own writer for the binary DQMV body format
// (docs/API.md): a 5-byte header "DQMV\x01", then 'T' zigzag-varint task
// deltas and 'V' uvarint(item<<1|dirty) zigzag-varint(worker) vote records.
// The server validates every body, and the estimate checks compare the
// result with the same votes sent as JSON, so a writer bug cannot pass
// silently.

var dqmvMagic = []byte{'D', 'Q', 'M', 'V', 1}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// appendDQMV encodes votes as consecutive tasks of taskVotes votes each
// (task ids 0, 1, 2, ...): the server ends a task at every task-id change and
// after the final vote.
func appendDQMV(buf []byte, votes []dqm.Vote, taskVotes int) []byte {
	buf = append(buf, dqmvMagic...)
	for i, v := range votes {
		if i%taskVotes == 0 {
			delta := int64(0)
			if i > 0 {
				delta = 1
			}
			buf = append(buf, 'T')
			buf = binary.AppendUvarint(buf, zigzag(delta))
		}
		key := uint64(v.Item) << 1
		if v.Dirty {
			key |= 1
		}
		buf = append(buf, 'V')
		buf = binary.AppendUvarint(buf, key)
		buf = binary.AppendUvarint(buf, zigzag(int64(v.Worker)))
	}
	return buf
}

// appendVotesJSON encodes one task as the single-task JSON vote body.
func appendVotesJSON(buf []byte, votes []dqm.Vote) []byte {
	buf = append(buf, `{"votes":[`...)
	for i, v := range votes {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"item":`...)
		buf = strconv.AppendInt(buf, int64(v.Item), 10)
		buf = append(buf, `,"worker":`...)
		buf = strconv.AppendInt(buf, int64(v.Worker), 10)
		buf = append(buf, `,"dirty":`...)
		buf = strconv.AppendBool(buf, v.Dirty)
		buf = append(buf, '}')
	}
	return append(buf, `],"end_task":true}`...)
}
