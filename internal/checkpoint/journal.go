package checkpoint

// Journal v2: the record-oriented on-disk format, an append-only
// journal.log of self-describing records:
//
//	magic "CRJ2" | payload length (uint32 LE) | CRC32C (uint32 LE) | payload
//
// where the payload is the JSON {"k": key, "v": value}. A Put appends
// one record and issues one fsync; the rest of the file is never
// touched. Corruption is contained to the records it hits:
//
//   - A torn final record (crash mid-append) is salvaged: the tail is
//     dropped, everything before it survives.
//   - A corrupt mid-file record (bit flip, overwritten region) is
//     quarantined: the decoder re-synchronizes on the next record magic,
//     skips and counts the bad bytes, and keeps every decodable record.
//     Since only CRC-valid records are ever accepted, scanning every
//     magic occurrence can never skip a good record — at worst a few
//     extra bytes land in quarantine.
//
// Decoding is pure (bytes in, entries + stats out), which is what the
// fuzz harness drives.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"sort"
)

// journalMagic opens every v2 record; the decoder re-synchronizes on it
// after corruption.
var journalMagic = []byte("CRJ2")

const (
	recordHeaderLen = 12 // magic + length + crc
	// maxRecordLen bounds one record's payload; a corrupt length field
	// claiming more is treated as corruption, not an allocation request.
	maxRecordLen = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// journalRecord is the payload encoding of one Put.
type journalRecord struct {
	K string          `json:"k"`
	V json.RawMessage `json:"v"`
}

// encodeRecord frames one key/value pair as a v2 record.
func encodeRecord(key string, val json.RawMessage) ([]byte, error) {
	payload, err := json.Marshal(journalRecord{K: key, V: val})
	if err != nil {
		return nil, err
	}
	buf := make([]byte, recordHeaderLen+len(payload))
	copy(buf, journalMagic)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[8:12], crc32.Checksum(payload, crcTable))
	copy(buf[recordHeaderLen:], payload)
	return buf, nil
}

// decodeStats summarizes one decode pass; the Store folds it into its
// Health.
type decodeStats struct {
	Records          int  // CRC-valid records accepted (including superseded duplicates)
	Duplicates       int  // accepted records later overwritten by a newer record for the same key
	SalvagedTail     int  // torn final records dropped (1 or 0 per decode)
	Quarantined      int  // corrupt chunks skipped mid-file
	QuarantinedBytes int  // total bytes in those chunks
	Torn             bool // the file ended in a partial record (implies SalvagedTail or a quarantined tail)
}

type recStatus int

const (
	recOK   recStatus = iota
	recTorn           // a record started but the data ends before it completes
	recBad            // magic mismatch, implausible length, CRC mismatch, or undecodable payload
)

// parseRecord examines the record beginning at b[0] and returns its
// status, the decoded record (recOK only), and its full frame size.
func parseRecord(b []byte) (recStatus, journalRecord, int) {
	if len(b) < len(journalMagic) {
		return recTorn, journalRecord{}, 0
	}
	if !bytes.Equal(b[:len(journalMagic)], journalMagic) {
		return recBad, journalRecord{}, 0
	}
	if len(b) < recordHeaderLen {
		return recTorn, journalRecord{}, 0
	}
	length := binary.LittleEndian.Uint32(b[4:8])
	if length > maxRecordLen {
		return recBad, journalRecord{}, 0
	}
	size := recordHeaderLen + int(length)
	if size > len(b) {
		return recTorn, journalRecord{}, 0
	}
	payload := b[recordHeaderLen:size]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(b[8:12]) {
		return recBad, journalRecord{}, 0
	}
	var rec journalRecord
	if err := json.Unmarshal(payload, &rec); err != nil || rec.K == "" {
		return recBad, journalRecord{}, 0
	}
	return recOK, rec, size
}

// decodeJournal replays a v2 journal image: later records for a key win
// (append-only overwrite), a torn tail is dropped, and corrupt chunks
// are returned for quarantine. It never fails — the worst input yields
// zero entries and everything in quarantine.
func decodeJournal(data []byte) (map[string]json.RawMessage, decodeStats, [][]byte) {
	entries := make(map[string]json.RawMessage)
	var stats decodeStats
	var quarantine [][]byte

	pos := 0
	corruptStart := -1
	flushQuarantine := func(end int) {
		if corruptStart >= 0 && end > corruptStart {
			chunk := make([]byte, end-corruptStart)
			copy(chunk, data[corruptStart:end])
			quarantine = append(quarantine, chunk)
			stats.Quarantined++
			stats.QuarantinedBytes += len(chunk)
		}
		corruptStart = -1
	}

	for pos < len(data) {
		status, rec, size := parseRecord(data[pos:])
		switch status {
		case recOK:
			flushQuarantine(pos)
			if _, dup := entries[rec.K]; dup {
				stats.Duplicates++
			}
			entries[rec.K] = rec.V
			stats.Records++
			pos += size
		case recTorn:
			// A record frame that runs past the end of the data: by
			// construction nothing follows it, so this is the torn tail of
			// the file. If we were already scanning through corruption, the
			// tail belongs to that quarantined chunk instead.
			stats.Torn = true
			if corruptStart >= 0 {
				flushQuarantine(len(data))
			} else {
				stats.SalvagedTail++
			}
			pos = len(data)
		case recBad:
			if corruptStart < 0 {
				corruptStart = pos
			}
			// Re-synchronize on the next magic. Only CRC-valid records are
			// accepted, so trying every occurrence is safe — a magic inside
			// corrupt bytes fails its CRC and the scan continues.
			idx := bytes.Index(data[pos+1:], journalMagic)
			if idx < 0 {
				flushQuarantine(len(data))
				pos = len(data)
				break
			}
			pos = pos + 1 + idx
		}
	}
	flushQuarantine(len(data))
	return entries, stats, quarantine
}

// encodeJournal renders entries as a compact v2 journal image, keys
// sorted so compaction output is deterministic.
func encodeJournal(entries map[string]json.RawMessage) ([]byte, error) {
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	for _, k := range keys {
		rec, err := encodeRecord(k, entries[k])
		if err != nil {
			return nil, err
		}
		buf.Write(rec)
	}
	return buf.Bytes(), nil
}
