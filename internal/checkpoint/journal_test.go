package checkpoint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crat/internal/faultinject"
)

// seedStore creates a store at dir, writes n entries, flushes, and
// closes it.
func seedStore(t *testing.T, dir string, n int) {
	t.Helper()
	st, err := Open(dir, "key", "test", false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := st.Put(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	st.Close()
}

func key(i int) string { return "k" + strings.Repeat("0", 2) + string(rune('a'+i%26)) + itoa(i) }
func val(i int) map[string]int {
	return map[string]int{"i": i, "sq": i * i}
}

func itoa(i int) string {
	b, _ := json.Marshal(i)
	return string(b)
}

func journalPath(dir string) string { return filepath.Join(dir, JournalFilename) }

// TestTornTailSalvage: a crash mid-append leaves a partial final record;
// resume drops it and keeps every complete record — the acceptance
// criterion's first half.
func TestTornTailSalvage(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 10)

	data, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journalPath(dir), data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := Open(dir, "key", "test", true)
	if err != nil {
		t.Fatalf("torn tail must not fail the open: %v", err)
	}
	if st.Count() != 9 {
		t.Fatalf("salvaged %d entries, want 9 (all but the torn final record)", st.Count())
	}
	h := st.Health()
	if h.SalvagedTail != 1 || h.Quarantined != 0 || !h.PendingRepair {
		t.Errorf("health = %+v, want SalvagedTail=1 Quarantined=0 PendingRepair=true", h)
	}
	// The torn record's key is gone; the other nine decode intact.
	for i := 0; i < 9; i++ {
		var got map[string]int
		ok, err := st.Get(key(i), &got)
		if err != nil || !ok || got["sq"] != i*i {
			t.Fatalf("entry %d: ok=%t err=%v got=%v", i, ok, err, got)
		}
	}
	if st.Has(key(9)) {
		t.Error("the torn final record survived; it must be dropped")
	}
}

// TestBitFlipQuarantine: a flipped byte mid-journal quarantines exactly
// that record; every other entry survives and the next resume is clean —
// the acceptance criterion's second half.
func TestBitFlipQuarantine(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 10)

	data, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte inside the 4th record: find its frame by
	// decoding record sizes.
	pos := 0
	for i := 0; i < 3; i++ {
		_, _, size := parseRecord(data[pos:])
		pos += size
	}
	data[pos+recordHeaderLen+2] ^= 0x40
	if err := os.WriteFile(journalPath(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := Open(dir, "key", "test", true)
	if err != nil {
		t.Fatalf("bit flip must not fail the open: %v", err)
	}
	if st.Count() != 9 {
		t.Fatalf("salvaged %d entries, want 9 (all but the flipped record)", st.Count())
	}
	h := st.Health()
	if h.Quarantined != 1 || h.SalvagedTail != 0 || h.QuarantinedBytes == 0 {
		t.Errorf("health = %+v, want Quarantined=1 SalvagedTail=0", h)
	}
	if st.Has(key(3)) {
		t.Error("the corrupted record decoded anyway; CRC must reject it")
	}

	// First write performs the repair: corrupt bytes land in the
	// quarantine file and the journal is rewritten clean.
	if err := st.Put("fresh", 42); err != nil {
		t.Fatal(err)
	}
	q, err := os.ReadFile(filepath.Join(dir, QuarantineFilename))
	if err != nil || !bytes.Contains(q, []byte("quarantined")) {
		t.Fatalf("quarantine file after repair: %v (%d bytes)", err, len(q))
	}
	if h := st.Health(); h.Compactions != 1 || h.PendingRepair {
		t.Errorf("post-repair health = %+v, want Compactions=1 PendingRepair=false", h)
	}
	st.Close()

	// Subsequent resume: clean journal, full contents, zero salvage.
	st2, err := Open(dir, "key", "test", true)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Count() != 10 { // 9 salvaged + "fresh"
		t.Fatalf("post-repair resume count = %d, want 10", st2.Count())
	}
	if h := st2.Health(); h.Quarantined != 0 || h.SalvagedTail != 0 || h.PendingRepair {
		t.Errorf("post-repair resume health = %+v, want clean", h)
	}
}

// TestResumeDoesNotMutateDisk: a resume open of a corrupt journal defers
// every repair — the bytes on disk are untouched until the first write,
// so concurrent read-only resumes can't pull the journal out from under
// a live writer.
func TestResumeDoesNotMutateDisk(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 5)
	data, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-3]
	if err := os.WriteFile(journalPath(dir), torn, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, "key", "test", true); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(journalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, torn) {
		t.Error("resume open rewrote the journal; repair must wait for the first write")
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineFilename)); !os.IsNotExist(err) {
		t.Error("resume open created the quarantine file; that is a write-path action")
	}
}

// TestAppendAfterTornTailStillDecodes: a writer that resumes over an
// unrepaired torn tail and appends must not render its appends
// unreadable — the decoder's magic resync recovers them.
func TestAppendAfterTornTailStillDecodes(t *testing.T) {
	entries := map[string]json.RawMessage{"a": json.RawMessage(`1`), "b": json.RawMessage(`2`)}
	img, err := encodeJournal(entries)
	if err != nil {
		t.Fatal(err)
	}
	torn := img[:len(img)-3]
	rec, err := encodeRecord("c", json.RawMessage(`3`))
	if err != nil {
		t.Fatal(err)
	}
	got, stats, _ := decodeJournal(append(append([]byte{}, torn...), rec...))
	if len(got) != 2 || string(got["a"]) != `1` || string(got["c"]) != `3` {
		t.Fatalf("decoded %v, want a and c to survive around the torn middle", got)
	}
	if stats.Quarantined != 1 {
		t.Errorf("stats = %+v, want the torn middle quarantined", stats)
	}
}

// TestCompactionThreshold: enough superseded records trigger a rewrite
// on the next session's first write, shrinking the journal.
func TestCompactionThreshold(t *testing.T) {
	old := compactMinDuplicates
	compactMinDuplicates = 8
	defer func() { compactMinDuplicates = old }()

	dir := t.TempDir()
	st, err := Open(dir, "key", "test", false)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			if err := st.Put(key(i), val(i+round)); err != nil {
				t.Fatal(err)
			}
		}
	}
	st.Close()
	bloated, _ := os.Stat(journalPath(dir))

	st2, err := Open(dir, "key", "test", true)
	if err != nil {
		t.Fatal(err)
	}
	if h := st2.Health(); !h.PendingRepair {
		t.Fatalf("health = %+v, want compaction pending past the garbage threshold", h)
	}
	if err := st2.Put("x", 1); err != nil {
		t.Fatal(err)
	}
	compacted, _ := os.Stat(journalPath(dir))
	if compacted.Size() >= bloated.Size() {
		t.Errorf("journal %d bytes after compaction, was %d — it must shrink", compacted.Size(), bloated.Size())
	}
	if h := st2.Health(); h.Compactions != 1 {
		t.Errorf("health = %+v, want Compactions=1", h)
	}
	st2.Close()

	st3, err := Open(dir, "key", "test", true)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Count() != 4 {
		t.Errorf("count after compaction = %d, want 4", st3.Count())
	}
	var got map[string]int
	if ok, _ := st3.Get(key(1), &got); !ok || got["i"] != 10 {
		t.Errorf("entry 1 after compaction = %v (ok=%t), want latest round's value", got, ok)
	}
}

// TestPutSurvivesFsyncFailure: an injected fsync failure surfaces the
// error (and counts in Health) but the in-memory entry keeps serving.
func TestPutSurvivesFsyncFailure(t *testing.T) {
	dir := t.TempDir()
	fsys := faultinject.NewFS(faultinject.OS(), faultinject.MustParse("fsync-fail:nth=4"))
	st, err := OpenFS(dir, "key", "test", false, fsys)
	if err != nil {
		t.Fatal(err) // manifest write consumes syncs 1-2, journal create sync 3
	}
	if err := st.Put("a", 1); err == nil {
		t.Fatal("Put under injected fsync failure returned nil")
	}
	if !st.Has("a") {
		t.Error("entry dropped from memory on append failure; it must keep serving")
	}
	if h := st.Health(); h.AppendErrors != 1 {
		t.Errorf("health = %+v, want AppendErrors=1", h)
	}
	if err := st.Put("b", 2); err != nil {
		t.Errorf("Put after the fault window: %v", err)
	}
}

// TestTornWriteRecovered: end-to-end fault loop — a torn append (power
// cut) followed by a crash-resume salvages everything before the tear.
func TestTornWriteRecovered(t *testing.T) {
	dir := t.TempDir()
	// Journal appends are writes 2+ (manifest temp file is write 1).
	fsys := faultinject.NewFS(faultinject.OS(), faultinject.MustParse("torn-write:nth=4,keep=9"))
	st, err := OpenFS(dir, "key", "test", false, fsys)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := st.Put(key(i), val(i)); err != nil {
			t.Fatal(err) // the tear is invisible to the writer
		}
	}
	// No Close: the process "died" before noticing.

	st2, err := Open(dir, "key", "test", true)
	if err != nil {
		t.Fatal(err)
	}
	h := st2.Health()
	if h.SalvagedTail+h.Quarantined == 0 {
		t.Fatalf("health = %+v, want the torn record detected", h)
	}
	if st2.Count() < 2 {
		t.Errorf("count = %d, want the records before the tear salvaged", st2.Count())
	}
	var got map[string]int
	if ok, _ := st2.Get(key(0), &got); !ok || got["sq"] != 0 {
		t.Errorf("entry 0 = %v (ok=%t), want intact", got, ok)
	}
}

// TestDecodeGarbageOnly: a journal of pure garbage yields zero entries,
// everything quarantined, no error, no panic.
func TestDecodeGarbageOnly(t *testing.T) {
	entries, stats, quarantine := decodeJournal(bytes.Repeat([]byte{0xde, 0xad}, 200))
	if len(entries) != 0 || stats.Quarantined != 1 || len(quarantine) != 1 || stats.QuarantinedBytes != 400 {
		t.Errorf("entries=%d stats=%+v chunks=%d, want everything in one quarantined chunk",
			len(entries), stats, len(quarantine))
	}
}
