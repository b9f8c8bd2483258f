// Package checkpoint persists completed results (experiment sweeps,
// cratd compile Decisions) so an interrupted run can resume without
// recomputing. A store is a directory holding:
//
//   - manifest.json — the session identity: format version plus a caller
//     supplied key (a hash of the simulated configuration). A resume
//     against a manifest whose key differs is rejected (ErrStale): results
//     computed under another configuration must never be replayed.
//   - journal.log — the record-oriented v2 journal: one append-only,
//     CRC32C-checksummed record per Put (see journal.go for the format
//     and its salvage/quarantine rules). A Put appends one record and
//     issues one fsync — O(record) per write.
//   - journal.quarantine — corrupt chunks skipped by the decoder, kept
//     for forensics instead of silently discarded.
//
// Corruption does not take the store down: a torn final record (crash
// mid-append) is dropped and everything before it survives; a corrupt
// mid-file record is skipped, counted, and quarantined while the rest of
// the cache loads. Health() reports what happened so degraded durability
// is observable, never silent.
//
// Only the current format version is resumable; any other manifest
// version is ErrStale, exactly like a configuration mismatch.
//
// Repairs (quarantine extraction, compaction past the garbage threshold)
// are detected at Open but applied on the first write:
// resume opens may be concurrent read-only observers of a live writer's
// directory, and must not rewrite journal.log out from under its append
// handle. A writer's first Put (or Flush) performs the pending repair
// under the manifest ownership check.
//
// All durable writes go through an injectable faultinject.FS, so every
// failure mode — failed fsync, torn write, ENOSPC, short read — is a
// deterministic, replayable test instead of a production surprise.
package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"crat/internal/faultinject"
)

// Version is the on-disk format version written to new manifests; a
// resume accepts no other.
const Version = 2

// Filenames inside a store directory, exported so process supervisors
// (the chaos matrix) can corrupt them on purpose.
const (
	ManifestFilename   = "manifest.json"
	JournalFilename    = "journal.log"
	QuarantineFilename = "journal.quarantine"
)

// compactMinDuplicates is the garbage threshold: a journal whose
// superseded-record count reaches it (and exceeds the live-entry count)
// is compacted on the first write after Open. A var so tests can lower
// it.
var compactMinDuplicates = 64

// ErrStale is returned by Open when resuming against a manifest written
// for a different configuration (or an unknown format version).
var ErrStale = errors.New("checkpoint: stale checkpoint rejected")

type manifest struct {
	Version int    `json:"version"`
	Key     string `json:"key"`
	Label   string `json:"label,omitempty"`
}

// compatible reports whether this manifest belongs to a store opened
// under key.
func (m manifest) compatible(key string) bool {
	return m.Version == Version && m.Key == key
}

// Health is the store's durability report: what Open found, what repairs
// ran, and what degraded. Exposed by cratd's /statsz so corrupted or
// shrinking durability is visible in monitoring, not just in logs.
type Health struct {
	Entries          int  `json:"entries"`
	Loaded           int  `json:"loaded"`
	SalvagedTail     int  `json:"salvaged_tail"`     // torn final records dropped at Open
	Quarantined      int  `json:"quarantined"`       // corrupt chunks skipped at Open
	QuarantinedBytes int  `json:"quarantined_bytes"` // total bytes in those chunks
	Compactions      int  `json:"compactions"`       // journal rewrites since Open
	AppendErrors     int  `json:"append_errors"`     // Puts whose durable append failed
	PendingRepair    bool `json:"pending_repair"`    // a repair is queued for the first write
}

// entry is one stored payload: raw as replayed from the journal, or v as
// Put by this process. A Put value is encoded again only when it is read
// back or the journal is compacted, so a caller that keeps v in memory
// itself (a cache serving hits from it) does not also hold its encoding.
type entry struct {
	raw json.RawMessage
	v   any
}

func (e entry) payload() (json.RawMessage, error) {
	if e.raw != nil {
		return e.raw, nil
	}
	return json.Marshal(e.v)
}

// Store is a durable map from result keys to JSON payloads. All methods
// are safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	dir     string
	key     string // config hash this store was opened under
	fs      faultinject.FS
	entries map[string]entry
	loaded  int // entries restored from disk at Open (resume)

	f          faultinject.File // open append handle (nil until first append)
	dupes      int              // superseded records in the on-disk journal
	needRepair bool             // compaction/quarantine queued
	quarantine [][]byte         // corrupt chunks awaiting the quarantine file
	health     Health
}

// Hash returns a hex SHA-256 of v's canonical JSON encoding — the
// configuration fingerprint stored in the manifest.
func Hash(v any) (string, error) {
	buf, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("checkpoint: hashing config: %w", err)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:]), nil
}

// Open creates or reopens a store at dir on the real filesystem. See
// OpenFS.
func Open(dir, key, label string, resume bool) (*Store, error) {
	return OpenFS(dir, key, label, resume, nil)
}

// OpenFS is Open with an injectable filesystem (nil = the real one; the
// fault-injection seam for chaos tests). key identifies the
// configuration the results are valid for; label is a human-readable tag
// recorded in the manifest (e.g. the architecture name). With resume
// set, an existing journal is loaded — after verifying the manifest's
// key matches, anything else is ErrStale; journal corruption is salvaged
// and quarantined, never fatal. Without resume, any existing journal is
// discarded and the store starts empty.
func OpenFS(dir, key, label string, resume bool, fsys faultinject.FS) (*Store, error) {
	if fsys == nil {
		fsys = faultinject.OS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, key: key, fs: fsys, entries: make(map[string]entry)}

	manifestPath := filepath.Join(dir, ManifestFilename)
	if resume {
		buf, err := fsys.ReadFile(manifestPath)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// Nothing to resume from: start fresh below.
		case err != nil:
			return nil, err
		default:
			var m manifest
			if err := json.Unmarshal(buf, &m); err != nil {
				return nil, fmt.Errorf("checkpoint: corrupt manifest %s: %w", manifestPath, err)
			}
			if !m.compatible(key) {
				return nil, fmt.Errorf("%w: %s: manifest (version=%d key=%.12s…) does not match current configuration (version=%d key=%.12s…)",
					ErrStale, manifestPath, m.Version, m.Key, Version, key)
			}
			if err := s.loadJournal(); err != nil {
				return nil, err
			}
			s.loaded = len(s.entries)
			s.health.Loaded = s.loaded
			s.health.Entries = len(s.entries)
			s.health.PendingRepair = s.needRepair
			return s, nil
		}
	}
	// Fresh store: the caller asserts ownership of the directory, so sweep
	// temp files a killed writer left behind, drop any previous journal
	// and quarantine, then persist the manifest. Resume opens never sweep —
	// a concurrent resume (even a stale one) must not delete a live
	// writer's in-flight temp file out from under its rename.
	if names, err := fsys.Glob(filepath.Join(dir, "*.tmp")); err == nil {
		for _, n := range names {
			fsys.Remove(n)
		}
	}
	for _, name := range []string{JournalFilename, QuarantineFilename} {
		if err := fsys.Remove(filepath.Join(dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	buf, err := json.MarshalIndent(manifest{Version: Version, Key: key, Label: label}, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := s.writeAtomic(ManifestFilename, buf); err != nil {
		return nil, fmt.Errorf("checkpoint: initializing manifest %s (config %.12s…): %w", manifestPath, key, err)
	}
	return s, nil
}

// loadJournal restores entries from journal.log on resume (a missing
// journal is an empty store). Corruption is salvaged in memory and
// queued for repair — it is never an error; only real I/O failures are.
func (s *Store) loadJournal() error {
	data, err := s.fs.ReadFile(filepath.Join(s.dir, JournalFilename))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	entries, stats, quarantine := decodeJournal(data)
	for k, raw := range entries {
		s.entries[k] = entry{raw: raw}
	}
	s.dupes = stats.Duplicates
	s.quarantine = quarantine
	s.health.SalvagedTail = stats.SalvagedTail
	s.health.Quarantined = stats.Quarantined
	s.health.QuarantinedBytes = stats.QuarantinedBytes
	s.needRepair = stats.SalvagedTail > 0 || stats.Quarantined > 0 || s.overGarbageThreshold()
	return nil
}

// overGarbageThreshold reports whether superseded records justify a
// compaction.
func (s *Store) overGarbageThreshold() bool {
	return s.dupes >= compactMinDuplicates && s.dupes >= len(s.entries)
}

// Get unmarshals the payload stored under key into out, reporting whether
// the key was present.
func (s *Store) Get(key string, out any) (bool, error) {
	s.mu.Lock()
	e, ok := s.entries[key]
	s.mu.Unlock()
	if !ok {
		return false, nil
	}
	raw, err := e.payload()
	if err == nil {
		err = json.Unmarshal(raw, out)
	}
	if err != nil {
		return false, fmt.Errorf("checkpoint: entry %q: %w", key, err)
	}
	return true, nil
}

// Has reports whether key is present without decoding it.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// Put records v under key and durably appends it to the journal: one
// record, one fsync, independent of store size. The in-memory entry is
// updated even when the durable append fails (the caller keeps serving;
// Health.AppendErrors counts the degradation) and the error reports why.
// The store keeps v itself, not its encoding, so v must not be modified
// after Put.
func (s *Store) Put(key string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint: encoding %q: %w", key, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, existed := s.entries[key]; existed {
		s.dupes++
	}
	s.entries[key] = entry{v: v}
	if err := s.persistLocked(key, raw); err != nil {
		s.health.AppendErrors++
		return err
	}
	return nil
}

// persistLocked makes the entry just stored under key durable: a pending
// repair rewrites the whole journal (which includes the entry), the
// normal path appends one record and fsyncs it.
func (s *Store) persistLocked(key string, raw json.RawMessage) error {
	if err := s.checkOwnershipLocked(); err != nil {
		return err
	}
	if s.needRepair {
		return s.repairLocked()
	}
	if s.f == nil {
		if err := s.openAppendLocked(); err != nil {
			return s.journalErr(err)
		}
	}
	rec, err := encodeRecord(key, raw)
	if err != nil {
		return s.journalErr(err)
	}
	if _, err := s.f.Write(rec); err != nil {
		return s.journalErr(err)
	}
	if err := s.f.Sync(); err != nil {
		return s.journalErr(err)
	}
	return nil
}

func (s *Store) journalErr(err error) error {
	return fmt.Errorf("checkpoint: journal %s (config %.12s…): %w",
		filepath.Join(s.dir, JournalFilename), s.key, err)
}

// openAppendLocked opens (creating if needed) the append handle; a newly
// created journal file is made durable with a directory sync.
func (s *Store) openAppendLocked() error {
	path := filepath.Join(s.dir, JournalFilename)
	_, statErr := s.fs.Stat(path)
	created := errors.Is(statErr, os.ErrNotExist)
	f, err := s.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if created {
		if err := s.fs.SyncDir(s.dir); err != nil {
			f.Close()
			return err
		}
	}
	s.f = f
	return nil
}

// repairLocked applies the repairs detected at Open, under the ownership
// check the caller already performed: quarantined chunks are appended to
// the quarantine file and the journal is rewritten compact (atomic temp +
// fsync + rename). Runs at most once per pending-repair state.
func (s *Store) repairLocked() error {
	// Forensics first: corrupt bytes are preserved before the journal
	// rewrite makes them unreachable.
	if len(s.quarantine) > 0 {
		if err := s.appendQuarantineLocked(); err != nil {
			return fmt.Errorf("checkpoint: writing quarantine %s: %w",
				filepath.Join(s.dir, QuarantineFilename), err)
		}
	}
	payloads := make(map[string]json.RawMessage, len(s.entries))
	for k, e := range s.entries {
		raw, err := e.payload()
		if err != nil {
			return s.journalErr(err)
		}
		payloads[k] = raw
	}
	buf, err := encodeJournal(payloads)
	if err != nil {
		return s.journalErr(err)
	}
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
	if err := s.writeAtomic(JournalFilename, buf); err != nil {
		return fmt.Errorf("checkpoint: compacting journal %s (config %.12s…): %w",
			filepath.Join(s.dir, JournalFilename), s.key, err)
	}
	s.quarantine = nil
	s.dupes = 0
	s.needRepair = false
	s.health.Compactions++
	s.health.PendingRepair = false
	return nil
}

// appendQuarantineLocked preserves corrupt chunks in the quarantine
// file, each prefixed with a one-line header so forensic inspection can
// tell the chunks apart.
func (s *Store) appendQuarantineLocked() error {
	f, err := s.fs.OpenFile(filepath.Join(s.dir, QuarantineFilename),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	for _, chunk := range s.quarantine {
		if _, err := f.Write([]byte(fmt.Sprintf("--- quarantined %d bytes ---\n", len(chunk)))); err != nil {
			return err
		}
		if _, err := f.Write(chunk); err != nil {
			return err
		}
		if _, err := f.Write([]byte("\n")); err != nil {
			return err
		}
	}
	return f.Sync()
}

// ErrConflict is returned by Put/Flush when the directory's manifest no
// longer belongs to this store: a second writer (e.g. another daemon
// pointed at the same cache directory) re-initialized it since we opened.
var ErrConflict = errors.New("checkpoint: directory owned by another writer")

// checkOwnershipLocked re-reads the manifest before every durable write
// and refuses when another writer has re-initialized the directory.
// Without the check two stores on one directory silently clobber each
// other's journals; with it the loser gets an error naming the path and
// both config hashes, so the misconfiguration is attributable.
func (s *Store) checkOwnershipLocked() error {
	manifestPath := filepath.Join(s.dir, ManifestFilename)
	buf, err := s.fs.ReadFile(manifestPath)
	if err != nil {
		return fmt.Errorf("%w: manifest %s unreadable (our config %.12s…): %v",
			ErrConflict, manifestPath, s.key, err)
	}
	var m manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return fmt.Errorf("%w: manifest %s corrupt (our config %.12s…): %v",
			ErrConflict, manifestPath, s.key, err)
	}
	if !m.compatible(s.key) {
		return fmt.Errorf("%w: %s holds key %.12s…, this store's config is %.12s… — is another daemon journaling into the same directory?",
			ErrConflict, manifestPath, m.Key, s.key)
	}
	return nil
}

// Count returns the number of persisted entries.
func (s *Store) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Loaded returns how many entries were restored from disk at Open — the
// resume inheritance, as opposed to entries added this session.
func (s *Store) Loaded() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loaded
}

// Health returns the durability report.
func (s *Store) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.health
	h.Entries = len(s.entries)
	h.Loaded = s.loaded
	h.PendingRepair = s.needRepair
	return h
}

// Keys returns the persisted keys, sorted.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.entries))
	for k := range s.entries {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Flush is the durability barrier: it performs any pending repair and
// fsyncs the journal. Puts already persist eagerly, so Flush only
// matters as a final barrier before reporting "everything survived".
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkOwnershipLocked(); err != nil {
		return err
	}
	if s.needRepair {
		return s.repairLocked()
	}
	if s.f == nil {
		return nil
	}
	if err := s.f.Sync(); err != nil {
		return s.journalErr(err)
	}
	return nil
}

// Close releases the append handle (after a final fsync). The store must
// not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// writeAtomic writes name in the store directory via temp file + fsync +
// rename + dir fsync: the destination is either untouched or fully
// replaced.
func (s *Store) writeAtomic(name string, data []byte) error {
	tmp, err := s.fs.CreateTemp(s.dir, name+".*.tmp")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer s.fs.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := s.fs.Rename(tmpName, filepath.Join(s.dir, name)); err != nil {
		return err
	}
	return s.fs.SyncDir(s.dir)
}
