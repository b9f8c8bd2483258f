package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

type payload struct {
	Cycles int64   `json:"cycles"`
	Rate   float64 `json:"rate"`
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "cfg-a", "fermi", false)
	if err != nil {
		t.Fatal(err)
	}
	want := payload{Cycles: 12345, Rate: 0.62}
	if err := s.Put("mode/CFD/CRAT", want); err != nil {
		t.Fatal(err)
	}

	// A fresh resume sees the entry byte-exactly.
	r, err := Open(dir, "cfg-a", "fermi", true)
	if err != nil {
		t.Fatal(err)
	}
	var got payload
	ok, err := r.Get("mode/CFD/CRAT", &got)
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v; want hit", ok, err)
	}
	if got != want {
		t.Errorf("round trip %+v != %+v", got, want)
	}
	if r.Loaded() != 1 || r.Count() != 1 {
		t.Errorf("Loaded=%d Count=%d, want 1/1", r.Loaded(), r.Count())
	}
}

func TestStaleKeyRejected(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, "cfg-a", "fermi", false); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, "cfg-b", "fermi", true); !errors.Is(err, ErrStale) {
		t.Errorf("resume under a different config key: err = %v, want ErrStale", err)
	}
	// Opening fresh (no resume) under the new key is allowed and rewrites
	// the manifest.
	s, err := Open(dir, "cfg-b", "fermi", false)
	if err != nil {
		t.Fatal(err)
	}
	if s.Count() != 0 {
		t.Errorf("fresh open kept %d stale entries", s.Count())
	}
	if _, err := Open(dir, "cfg-b", "fermi", true); err != nil {
		t.Errorf("resume after fresh re-key: %v", err)
	}
	// A manifest from format version 1 is stale even under the right key.
	if err := os.WriteFile(filepath.Join(dir, ManifestFilename),
		[]byte(`{"version": 1, "key": "cfg-b"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, "cfg-b", "fermi", true); !errors.Is(err, ErrStale) {
		t.Errorf("resume against manifest version 1: err = %v, want ErrStale", err)
	}
}

func TestFreshOpenDiscardsJournal(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "k", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", payload{Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, "k", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Count() != 0 || s2.Has("a") {
		t.Error("fresh open kept old journal entries")
	}
}

func TestResumeWithoutManifestStartsFresh(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "k", "", true)
	if err != nil {
		t.Fatalf("resume of an empty dir must succeed: %v", err)
	}
	if s.Count() != 0 {
		t.Errorf("Count = %d", s.Count())
	}
	// The manifest must now exist so a later resume validates against it.
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		t.Errorf("manifest not created: %v", err)
	}
}

func TestLeftoverTempFilesSwept(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, "k", "", false); err != nil {
		t.Fatal(err)
	}
	// Simulate a writer killed mid-write.
	junk := filepath.Join(dir, "journal.json.123.tmp")
	if err := os.WriteFile(junk, []byte("{partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Resume opens are read-only: they must leave the temp file alone (it
	// could belong to a live writer mid-rename).
	if _, err := Open(dir, "k", "", true); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(junk); err != nil {
		t.Errorf("resume open disturbed a temp file: %v", err)
	}
	// A fresh open asserts ownership and sweeps it.
	if _, err := Open(dir, "k", "", false); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(junk); !errors.Is(err, os.ErrNotExist) {
		t.Error("leftover temp file not swept on fresh open")
	}
	// And no temp files linger after normal operation either.
	s, err := Open(dir, "k", "", true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprint("key", i), payload{Cycles: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(tmps) != 0 {
		t.Errorf("temp files linger after Puts: %v", tmps)
	}
}

func TestConcurrentPuts(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "k", "", false)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.Put(fmt.Sprint("key/", i), payload{Cycles: int64(i)}); err != nil {
				t.Errorf("put %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	r, err := Open(dir, "k", "", true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Count() != 16 {
		t.Errorf("resumed %d entries, want 16", r.Count())
	}
	keys := r.Keys()
	if len(keys) != 16 || !strings.HasPrefix(keys[0], "key/") {
		t.Errorf("Keys() = %v", keys)
	}
}

func TestHashStability(t *testing.T) {
	type cfg struct {
		A int
		B string
	}
	h1, err := Hash(cfg{1, "x"})
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := Hash(cfg{1, "x"})
	h3, _ := Hash(cfg{2, "x"})
	if h1 != h2 {
		t.Error("hash not deterministic")
	}
	if h1 == h3 {
		t.Error("hash ignores field changes")
	}
	if len(h1) != 64 {
		t.Errorf("hash length %d, want 64 hex chars", len(h1))
	}
}

// TestConcurrentResumeStale races live-key resumes, stale-key resumes, and
// writer Puts against one store directory: every stale resume must be
// rejected with ErrStale (never a partially loaded store), every live
// resume must succeed and observe an uncorrupted journal, and after the
// dust settles exactly one journal — the live session's, with every Put —
// survives.
func TestConcurrentResumeStale(t *testing.T) {
	dir := t.TempDir()
	live, err := Open(dir, "cfg-a", "fermi", false)
	if err != nil {
		t.Fatal(err)
	}
	const pre = 8
	for i := 0; i < pre; i++ {
		if err := live.Put(fmt.Sprint("pre/", i), payload{Cycles: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}

	const racers = 8
	staleErrs := make([]error, racers)
	liveErrs := make([]error, racers)
	liveCounts := make([]int, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(3)
		go func(i int) {
			defer wg.Done()
			if err := live.Put(fmt.Sprint("more/", i), payload{Cycles: int64(i)}); err != nil {
				t.Errorf("put more/%d: %v", i, err)
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			_, staleErrs[i] = Open(dir, "cfg-b", "kepler", true)
		}(i)
		go func(i int) {
			defer wg.Done()
			s, err := Open(dir, "cfg-a", "fermi", true)
			liveErrs[i] = err
			if err == nil {
				liveCounts[i] = s.Count()
			}
		}(i)
	}
	wg.Wait()

	for i, err := range staleErrs {
		if !errors.Is(err, ErrStale) {
			t.Errorf("stale resume %d: err = %v, want ErrStale", i, err)
		}
	}
	for i, err := range liveErrs {
		if err != nil {
			t.Errorf("live resume %d: %v", i, err)
			continue
		}
		if liveCounts[i] < pre {
			t.Errorf("live resume %d saw %d entries, want >= %d (the pre-race Puts)", i, liveCounts[i], pre)
		}
	}

	// Exactly one journal survives: a final live-key resume sees every Put,
	// and the stale key still cannot attach to it.
	r, err := Open(dir, "cfg-a", "fermi", true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Count() != pre+racers {
		t.Errorf("surviving journal has %d entries, want %d", r.Count(), pre+racers)
	}
	if _, err := Open(dir, "cfg-b", "kepler", true); !errors.Is(err, ErrStale) {
		t.Errorf("stale key resumed against the surviving journal: err = %v", err)
	}
}

// TestDoubleOpenConflict is the two-daemons-one-directory scenario: a
// second store fresh-opened on the same directory under a different config
// takes ownership; the first store's next Put must fail with ErrConflict,
// naming the manifest path and both config hashes, instead of silently
// clobbering the new owner's journal.
func TestDoubleOpenConflict(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir, "cfg-a", "daemon-a", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Put("x", payload{Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	// Daemon B points at the same directory and re-initializes it.
	b, err := Open(dir, "cfg-b", "daemon-b", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Put("y", payload{Cycles: 2}); err != nil {
		t.Fatal(err)
	}
	// Daemon A no longer owns the directory: its flush must refuse.
	err = a.Put("z", payload{Cycles: 3})
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("Put after hijack: err = %v, want ErrConflict", err)
	}
	for _, want := range []string{dir, "cfg-a", "cfg-b"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("conflict error %q does not mention %q", err, want)
		}
	}
	// B's journal must be intact: A's refused flush wrote nothing.
	r, err := Open(dir, "cfg-b", "daemon-b", true)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Has("y") || r.Has("z") || r.Has("x") {
		t.Errorf("surviving journal keys = %v, want exactly [y]", r.Keys())
	}
}

// TestStaleErrorNamesManifestPath: attribution for the resume-mismatch
// case — the error must say which manifest file rejected the resume.
func TestStaleErrorNamesManifestPath(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, "cfg-a", "", false); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, "cfg-b", "", true)
	if !errors.Is(err, ErrStale) {
		t.Fatalf("err = %v, want ErrStale", err)
	}
	if !strings.Contains(err.Error(), filepath.Join(dir, "manifest.json")) {
		t.Errorf("stale error %q does not name the manifest path", err)
	}
}

// TestFlushErrorNamesJournalAndConfig: when the directory disappears under
// a live writer, the Put error must name the journal path and the store's
// config hash so the failure is attributable to the right daemon/config.
func TestFlushErrorNamesJournalAndConfig(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Open(dir, "cfg-attrib", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", payload{Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	err = s.Put("b", payload{Cycles: 2})
	if err == nil {
		t.Fatal("Put into a removed directory succeeded")
	}
	for _, want := range []string{dir, "cfg-attrib"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("flush error %q does not mention %q", err, want)
		}
	}
}
