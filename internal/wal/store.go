package wal

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Store maps session ids onto per-session journal directories under one data
// directory. It holds no per-session state itself — journals are owned by the
// sessions that opened them — so its methods are safe for concurrent use as
// long as each session id is operated on by one caller at a time (the engine
// guarantees this). What the store does own is the group-commit Syncer every
// journal it opens shares: one goroutine batching flush/fsync work across all
// sessions (see Syncer). Close stops it; journals opened by the store keep
// working afterwards but fall back to syncing themselves.
type Store struct {
	dir  string
	opts Options

	sy        *Syncer
	closeOnce sync.Once
	// metaMu serializes every rewrite of a meta.json (SetPolicy and
	// Journal.Reset).
	metaMu sync.Mutex
}

// OpenStore opens (creating if needed) a data directory. Session directories
// left behind by a crash mid-Create (a directory without meta.json — the meta
// is the first file a create writes) hold no durable history and are swept
// away, so a torn create can never wedge recovery or block the id forever.
func OpenStore(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open store: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: open store: %w", err)
	}
	for _, e := range ents {
		if e.IsDir() && abortedCreate(filepath.Join(dir, e.Name())) {
			os.RemoveAll(filepath.Join(dir, e.Name()))
		}
	}
	opts = opts.withDefaults()
	return &Store{dir: dir, opts: opts, sy: newSyncer(opts)}, nil
}

// Close stops the store's group-commit syncer after one final pass, so every
// batch committed before Close is flushed (and, per policy, fsynced). Safe to
// call more than once. Journals stay usable — they self-sync afterwards —
// but callers should close them first: the engine closes sessions, then the
// store.
func (s *Store) Close() error {
	s.closeOnce.Do(func() { s.sy.Close() })
	return nil
}

// abortedCreate reports whether a session directory was abandoned by a crash
// between Mkdir and writeMeta: it exists but has no meta.json. Such a
// directory predates the first durable byte of its session, so removing it
// loses nothing.
func abortedCreate(dir string) bool {
	if _, err := os.Stat(dir); err != nil {
		return false
	}
	_, err := os.Stat(filepath.Join(dir, "meta.json"))
	return os.IsNotExist(err)
}

// Meta is the descriptor of one journaled session, persisted as meta.json in
// its directory. Identity fields (ID, Items, CreatedAt, Config) are written
// once at Create and never change; Policy is rewritten by SetPolicy and
// ResetVersion by Journal.Reset.
type Meta struct {
	Version   int             `json:"version"`
	ID        string          `json:"id"`
	Items     int             `json:"items"`
	CreatedAt time.Time       `json:"created_at"`
	Config    json.RawMessage `json:"config,omitempty"`
	// Policy is the session's quality-gate policy document (opaque to the
	// WAL layer); empty means none attached.
	Policy json.RawMessage `json:"policy,omitempty"`
	// ResetVersion is the session version published by the last reset, 0
	// when none was recorded (no reset, or one written by an older build).
	ResetVersion uint64 `json:"reset_version,omitempty"`
}

// maxHexID bounds the raw-byte length hex-escaped into a directory name;
// beyond it the name would approach NAME_MAX, so long ids hash instead.
const maxHexID = 100

// dirFor encodes a session id as a filesystem-safe directory name. Ids that
// are already safe are kept readable; short unsafe ids hex-escape behind a
// "%" prefix (invertible); long ids get a "#"-prefixed SHA-256 name, with
// the true id recorded in meta.json (IDs reads it back from there). No safe
// name can start with "%" or "#", so the three namespaces cannot collide.
func dirFor(id string) string {
	if safeDirName(id) {
		return id
	}
	if len(id) <= maxHexID {
		return "%" + hex.EncodeToString([]byte(id))
	}
	sum := sha256.Sum256([]byte(id))
	return "#" + hex.EncodeToString(sum[:])
}

// idFromDir inverts dirFor.
func idFromDir(name string) (string, bool) {
	if strings.HasPrefix(name, "%") {
		b, err := hex.DecodeString(name[1:])
		if err != nil {
			return "", false
		}
		return string(b), true
	}
	if !safeDirName(name) {
		return "", false
	}
	return name, true
}

// safeDirName admits short names of [A-Za-z0-9._-] not starting with '.',
// '-' or '%'.
func safeDirName(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case (c == '.' || c == '-' || c == '_') && i > 0:
		default:
			return false
		}
	}
	return true
}

// sessionDir returns the directory of a session id.
func (s *Store) sessionDir(id string) string { return filepath.Join(s.dir, dirFor(id)) }

// Exists reports whether a session directory exists for id.
func (s *Store) Exists(id string) bool {
	_, err := os.Stat(filepath.Join(s.sessionDir(id), "meta.json"))
	return err == nil
}

// IDs returns every session id with a directory in the store, sorted.
func (s *Store) IDs() ([]string, error) {
	listed, err := s.listIDs()
	if err != nil {
		return nil, err
	}
	out := make([]string, len(listed))
	for i, l := range listed {
		out[i] = l.id
	}
	sort.Strings(out)
	return out, nil
}

// listedID pairs a recoverable session id with its directory name.
type listedID struct {
	id  string
	dir string
}

// listIDs enumerates recoverable session ids (unordered).
func (s *Store) listIDs() ([]listedID, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []listedID
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasPrefix(name, "#") {
			// Hashed directory names are not invertible; the id lives in
			// meta.json. A dir whose meta is unreadable is skipped (it is
			// not recoverable anyway).
			if m, err := readMetaFile(filepath.Join(s.dir, name)); err == nil {
				out = append(out, listedID{id: m.ID, dir: name})
			}
			continue
		}
		// A dir without meta.json is an aborted create (crash between Mkdir
		// and writeMeta, or a Create in flight right now): it holds no
		// session and must not be listed — a listed-but-unrecoverable id
		// would fail engine recovery for the whole store. Only IsNotExist
		// qualifies; any other stat error (permissions, I/O) still lists the
		// id so recovery fails loudly instead of hiding durable data.
		if _, err := os.Stat(filepath.Join(s.dir, name, "meta.json")); os.IsNotExist(err) {
			continue
		}
		if id, ok := idFromDir(name); ok {
			out = append(out, listedID{id: id, dir: name})
		}
	}
	return out, nil
}

// IDsByMTime returns every recoverable session id, most recently modified
// first (ties broken by id, so the order is deterministic). A session's
// modification time is the newest mtime among the files in its directory —
// appends touch the active segment, compaction the snapshot — so the front of
// the list is the set of sessions that were hot when the previous process
// stopped. Boot recovery uses it to spend a bounded MaxSessions budget on the
// LRU-warm sessions instead of an arbitrary listing prefix.
func (s *Store) IDsByMTime() ([]string, error) {
	listed, err := s.listIDs()
	if err != nil {
		return nil, err
	}
	type stamped struct {
		id string
		at time.Time
	}
	out := make([]stamped, 0, len(listed))
	for _, l := range listed {
		var newest time.Time
		ents, err := os.ReadDir(filepath.Join(s.dir, l.dir))
		if err == nil {
			for _, e := range ents {
				if info, err := e.Info(); err == nil && info.ModTime().After(newest) {
					newest = info.ModTime()
				}
			}
		}
		out = append(out, stamped{id: l.id, at: newest})
	}
	sort.Slice(out, func(i, k int) bool {
		if !out[i].at.Equal(out[k].at) {
			return out[i].at.After(out[k].at)
		}
		return out[i].id < out[k].id
	})
	ids := make([]string, len(out))
	for i, s := range out {
		ids[i] = s.id
	}
	return ids, nil
}

// Delete removes a session's directory and everything in it, reporting
// whether a directory existed. It is deliberately not gated on Exists: a
// directory without meta.json (aborted create) must still be removable, or
// its id would be stuck — unlistable yet blocking Create forever.
func (s *Store) Delete(id string) (bool, error) {
	dir := s.sessionDir(id)
	if _, err := os.Stat(dir); err != nil {
		return false, nil
	}
	if err := os.RemoveAll(dir); err != nil {
		return true, err
	}
	return true, syncDir(s.dir)
}

// Create makes a fresh journal directory for a session. It fails if one
// already exists (even for a session the engine no longer has in memory —
// on-disk state must be recovered or deleted explicitly, never silently
// overwritten).
func (s *Store) Create(meta Meta) (*Journal, error) {
	dir := s.sessionDir(meta.ID)
	err := os.Mkdir(dir, 0o755)
	if os.IsExist(err) && abortedCreate(dir) {
		// The dir is debris from a create that crashed before writing
		// meta.json — no durable history, so reclaim the id.
		os.RemoveAll(dir)
		err = os.Mkdir(dir, 0o755)
	}
	if err != nil {
		if os.IsExist(err) {
			return nil, fmt.Errorf("wal: session %q already exists on disk at %s", meta.ID, dir)
		}
		return nil, err
	}
	meta.Version = 1
	if err := writeMeta(dir, meta); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	f, size, err := createSegment(dir, 1)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	// createSegment's fsync of the session directory made both names in it
	// durable, meta.json's and the segment's; the store directory's makes
	// the session's own. Until it succeeds the session is not acknowledged,
	// so a failure undoes the create.
	if err := syncDir(s.dir); err != nil {
		f.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	return &Journal{dir: dir, opts: s.opts, sy: s.sy, metaMu: &s.metaMu, f: f, seq: 1, size: size}, nil
}

// writeMeta atomically replaces meta.json: temp file, fsync, rename. The
// content fsync before the rename matters: without it a power loss can leave
// a visible-but-empty meta.json, and one unparsable meta fails recovery for
// the whole store. The caller fsyncs dir to make the rename durable.
func writeMeta(dir string, meta Meta) error {
	b, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, "meta.json.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(b)
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
	if err := os.Rename(tmp, filepath.Join(dir, "meta.json")); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// ReadMeta loads a session's metadata.
func (s *Store) ReadMeta(id string) (Meta, error) {
	m, err := readMetaFile(s.sessionDir(id))
	if err != nil {
		return m, err
	}
	return m, nil
}

// SetPolicy rewrites the Policy of a session's meta.json (empty detaches).
// The caller must serialize against concurrent Create/Delete of the same id
// (the engine holds its per-id transition lock).
func (s *Store) SetPolicy(id string, policy json.RawMessage) error {
	return rewriteMeta(&s.metaMu, s.sessionDir(id), func(m *Meta) { m.Policy = policy })
}

// rewriteMeta applies mutate to the meta.json in dir and replaces it with
// the same atomic temp+fsync+rename discipline as Create, holding mu across
// the read and the write.
func rewriteMeta(mu *sync.Mutex, dir string, mutate func(*Meta)) error {
	mu.Lock()
	defer mu.Unlock()
	m, err := readMetaFile(dir)
	if err != nil {
		return err
	}
	mutate(&m)
	if err := writeMeta(dir, m); err != nil {
		return err
	}
	return syncDir(dir)
}

// readMetaFile loads and validates the meta.json inside a session directory.
func readMetaFile(dir string) (Meta, error) {
	var m Meta
	b, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("wal: %s: bad meta.json: %w", filepath.Base(dir), err)
	}
	if m.Items <= 0 {
		return m, fmt.Errorf("wal: %s: bad population %d in meta.json", filepath.Base(dir), m.Items)
	}
	return m, nil
}

// Recover replays a session's durable history (latest snapshot, then the
// journal tail) through h, in exactly the order it was ingested, and returns
// a journal positioned to append after the last intact frame. A torn tail on
// the final segment is truncated; corruption anywhere earlier is an error.
// A snapshot that cannot be read is left on disk as it is, and named in the
// error if recovery cannot complete without it.
func (s *Store) Recover(id string, h Hooks) (*Journal, error) {
	dir := s.sessionDir(id)
	snaps, segs, err := listFiles(dir)
	if err != nil {
		return nil, err
	}

	// Pick the newest intact snapshot; validation happens before any record
	// is replayed, so a half-compacted snapshot falls back cleanly.
	var snapSeq uint64
	var snapBody []byte
	var snapBytes int64
	var skipped error // newer snapshots that failed to read
	for i := len(snaps) - 1; i >= 0; i-- {
		body, err := readSnapshotBody(snapPath(dir, snaps[i]))
		if err != nil {
			skipped = errors.Join(skipped, err)
			continue
		}
		snapSeq, snapBody = snaps[i], body
		snapBytes = int64(len(body)) + int64(len(snapMagic)) + 4
		break
	}
	fail := func(err error) error {
		if skipped != nil {
			return fmt.Errorf("wal: session %q: %w (skipped unreadable snapshot: %w)", id, err, skipped)
		}
		return fmt.Errorf("wal: session %q: %w", id, err)
	}
	if snapBody != nil {
		if err := decodeRecords(snapBody, h); err != nil {
			return nil, fail(fmt.Errorf("snapshot %d: %w", snapSeq, err))
		}
	}

	// Clean up files the snapshot supersedes (crash between snapshot rename
	// and deletes) and stray temp files. A newer snapshot is never removed:
	// it failed to read, and it may hold the only copy of its history.
	for _, seq := range snaps {
		if seq < snapSeq {
			os.Remove(snapPath(dir, seq))
		}
	}
	live := segs[:0]
	for _, seq := range segs {
		if seq <= snapSeq {
			os.Remove(segPath(dir, seq))
			continue
		}
		live = append(live, seq)
	}
	removeTemp(dir)

	j := &Journal{dir: dir, opts: s.opts, sy: s.sy, metaMu: &s.metaMu, snapSeq: snapSeq, snapBytes: snapBytes}
	if len(live) == 0 {
		f, size, err := createSegment(dir, snapSeq+1)
		if err != nil {
			return nil, err
		}
		j.f, j.seq, j.size = f, snapSeq+1, size
		return j, nil
	}

	// Replay the tail segments in order. Only the final one may be torn.
	var scratch []byte
	if h.Buf != nil {
		scratch = *h.Buf
		defer func() { *h.Buf = scratch }()
	}
	for i, seq := range live {
		if want := snapSeq + uint64(i) + 1; seq != want {
			return nil, fail(fmt.Errorf("missing segment %d (found %d)", want, seq))
		}
		last := i == len(live)-1
		res, sc, err := scanSegment(segPath(dir, seq), h, scratch)
		scratch = sc
		if err != nil {
			if last && errors.Is(err, errTornHeader) {
				// The process died while creating this segment: no frame ever
				// reached it. Recreate it empty.
				os.Remove(segPath(dir, seq))
				f, size, err := createSegment(dir, seq)
				if err != nil {
					return nil, err
				}
				j.f, j.seq, j.size = f, seq, size
				return j, nil
			}
			return nil, fail(err)
		}
		if !res.clean && !last {
			return nil, fail(fmt.Errorf("segment %d is corrupt mid-journal", seq))
		}
		if last {
			f, err := os.OpenFile(segPath(dir, seq), os.O_WRONLY, 0)
			if err != nil {
				return nil, err
			}
			if !res.clean {
				if err := f.Truncate(res.valid); err != nil {
					f.Close()
					return nil, err
				}
			}
			if _, err := f.Seek(res.valid, 0); err != nil {
				f.Close()
				return nil, err
			}
			j.f, j.seq, j.size = f, seq, res.valid
		} else {
			j.sealedBytes += res.valid
		}
	}
	return j, nil
}

// listFiles enumerates snapshot and segment sequence numbers in dir, sorted.
func listFiles(dir string) (snaps, segs []uint64, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range ents {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".bin"):
			if seq, err := strconv.ParseUint(name[5:len(name)-4], 10, 64); err == nil {
				snaps = append(snaps, seq)
			}
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg"):
			if seq, err := strconv.ParseUint(name[4:len(name)-4], 10, 64); err == nil {
				segs = append(segs, seq)
			}
		}
	}
	sort.Slice(snaps, func(i, k int) bool { return snaps[i] < snaps[k] })
	sort.Slice(segs, func(i, k int) bool { return segs[i] < segs[k] })
	return snaps, segs, nil
}

// removeTemp deletes stray temp files from interrupted snapshot writes.
func removeTemp(dir string) {
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}
