package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

var (
	segMagic  = []byte{'D', 'Q', 'M', 'W', 1}
	snapMagic = []byte{'D', 'Q', 'M', 'S', 1}
)

// errTornHeader marks a segment whose header never fully reached the disk:
// shorter than segMagic and a prefix of it, or zero bytes only. On the final
// segment that is a torn tail from a crash at creation time, anywhere else
// it is fatal corruption. Any other header is not this codec's, and fails
// recovery rather than be taken for a torn one.
var errTornHeader = errors.New("torn segment header")

// tornHeader reports whether hdr, a segment's first min(size, 5) bytes, is
// what a crash while writing segMagic can leave.
func tornHeader(hdr []byte) bool {
	if len(hdr) < len(segMagic) && bytes.HasPrefix(segMagic, hdr) {
		return true
	}
	for _, b := range hdr {
		if b != 0 {
			return false
		}
	}
	return true
}

// castagnoli is the CRC32C polynomial table (the storage-standard variant).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxFramePayload bounds one frame's payload. The journal never writes a
// longer one (it refuses a batch that cannot fit, see ErrBatchTooLarge), and
// the scanner reads a longer length as a torn frame before allocating. A
// variable only so tests can lower it.
var maxFramePayload = 1 << 26

// frameHead is the room a frame's head takes in front of its payload while
// the frame is open: the longest uvarint length a payload can have, then the
// CRC32C. sealFrame writes the head right-aligned into it.
const frameHead = binary.MaxVarintLen32 + crc32.Size

// sealFrame frames buf[frameHead:] in place, writing the payload's uvarint
// length and CRC32C (little endian) right-aligned into buf[:frameHead], and
// returns the frame:
//
//	uvarint(len(payload)) | crc32c(payload) LE | payload
func sealFrame(buf []byte) []byte {
	payload := buf[frameHead:]
	var n [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(n[:], uint64(len(payload)))
	start := frameHead - crc32.Size - k
	copy(buf[start:], n[:k])
	binary.LittleEndian.PutUint32(buf[frameHead-crc32.Size:], crc32.Checksum(payload, castagnoli))
	return buf[start:]
}

// scanResult reports how far a segment scan got.
type scanResult struct {
	// valid is the offset just past the last intact frame; bytes beyond it
	// are a torn tail (or absent).
	valid int64
	// clean reports that the scan consumed the file exactly (no torn tail).
	clean bool
}

// scanSegment replays every intact frame of a segment file through h. A
// truncated or CRC-corrupt frame ends the scan — the caller decides whether a
// torn tail is tolerable (final segment) or fatal (sealed segment). An error
// is returned only for structural impossibilities (a torn or unknown header)
// or a hook rejection, both of which mean the data must not be trusted at
// all.
//
// The whole segment is read into scratch (reused across calls) in one pass
// and parsed in memory: recovery pays one read syscall per segment instead of
// a buffered-reader round trip per varint byte, and frame payloads are sliced
// out of the read buffer instead of copied. Segments are bounded by the
// rotation threshold, so the buffer stays modest and amortizes across the
// whole boot.
func scanSegment(path string, h Hooks, scratch []byte) (scanResult, []byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return scanResult{}, scratch, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return scanResult{}, scratch, err
	}
	if int64(cap(scratch)) < fi.Size() {
		scratch = make([]byte, fi.Size())
	}
	buf := scratch[:cap(scratch)]
	// ReadFull short-reads only if the file shrank after the stat (impossible
	// for sealed segments; harmless for a final one — the scan just sees the
	// shorter tail). Anything but an EOF-shaped error is a real I/O fault.
	n, err := io.ReadFull(f, buf)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return scanResult{}, scratch, err
	}
	if n < int(fi.Size()) { // shrank mid-read; n never exceeds the stat size
		buf = buf[:n]
	} else {
		buf = scratch[:fi.Size()]
	}

	if len(buf) < len(segMagic) || !bytes.Equal(buf[:len(segMagic)], segMagic) {
		hdr := buf[:min(len(buf), len(segMagic))]
		if tornHeader(hdr) {
			return scanResult{}, scratch, fmt.Errorf("wal: %s: %w", filepath.Base(path), errTornHeader)
		}
		return scanResult{}, scratch, fmt.Errorf("wal: %s: unknown segment header %q", filepath.Base(path), hdr)
	}
	res := scanResult{valid: int64(len(segMagic))}
	for {
		off := res.valid
		if off == int64(len(buf)) {
			res.clean = true
			return res, scratch, nil
		}
		size, un := binary.Uvarint(buf[off:])
		if un <= 0 || size > uint64(maxFramePayload) {
			return res, scratch, nil // torn or absurd length prefix
		}
		off += int64(un)
		if off+4 > int64(len(buf)) {
			return res, scratch, nil // torn CRC
		}
		want := binary.LittleEndian.Uint32(buf[off:])
		off += 4
		if off+int64(size) > int64(len(buf)) {
			return res, scratch, nil // torn payload
		}
		payload := buf[off : off+int64(size)]
		if crc32.Checksum(payload, castagnoli) != want {
			return res, scratch, nil // torn or corrupt frame
		}
		if err := decodeRecords(payload, h); err != nil {
			// The CRC matched but the records are malformed (or rejected by
			// the hook): the frame was not written by this codec. Refuse the
			// whole segment rather than guess.
			return res, scratch, fmt.Errorf("wal: %s: frame at offset %d: %w", filepath.Base(path), res.valid, err)
		}
		res.valid = off + int64(size)
	}
}

// writeSnapshot atomically writes a snapshot file holding body (a record
// stream) at path: temp file, fsync, rename, directory fsync.
func writeSnapshot(path string, body []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	sum := crc32.Checksum(snapMagic, castagnoli)
	sum = crc32.Update(sum, castagnoli, body)
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], sum)
	_, err = f.Write(segBodyTrailer(snapMagic, body, trailer[:]))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// segBodyTrailer concatenates the snapshot sections into one write.
func segBodyTrailer(magic, body, trailer []byte) []byte {
	out := make([]byte, 0, len(magic)+len(body)+len(trailer))
	out = append(out, magic...)
	out = append(out, body...)
	return append(out, trailer...)
}

// readSnapshotBody loads and integrity-checks a snapshot file, returning its
// record stream. Validation completes before any record is interpreted, so a
// partially written snapshot can be rejected without side effects.
func readSnapshotBody(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) < len(snapMagic)+4 || string(b[:len(snapMagic)]) != string(snapMagic) {
		return nil, fmt.Errorf("wal: %s: bad snapshot header", filepath.Base(path))
	}
	body := b[len(snapMagic) : len(b)-4]
	want := binary.LittleEndian.Uint32(b[len(b)-4:])
	sum := crc32.Checksum(b[:len(b)-4], castagnoli)
	if sum != want {
		return nil, fmt.Errorf("wal: %s: snapshot checksum mismatch", filepath.Base(path))
	}
	return body, nil
}

// testSyncDir, when set (tests only), observes every syncDir call before the
// directory is synced: the hook tests use to pin which names each directory
// fsync covers.
var testSyncDir func(dir string)

// syncDir fsyncs a directory so new names, renames and removals inside it are
// durable. Failures are reported but non-fatal on filesystems that reject dir
// fsync.
func syncDir(dir string) error {
	if testSyncDir != nil {
		testSyncDir(dir)
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	_ = d.Sync() // best-effort: some filesystems refuse directory fsync
	return nil
}
