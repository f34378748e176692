// Package wal implements the write-ahead log behind the durable page
// store: LSN-stamped physical page records with CRC-protected framing,
// group commit with fsync batching, segment rotation at checkpoints,
// and the redo scan that recovery replays.
//
// The log is redo-only (ARIES-lite): records carry physical page bytes
// with absolute values, so recovery never needs undo — it replays
// committed records in log order and discards the uncommitted tail. A
// record is one of
//
//	page       — full physical image of one page
//	page delta — the byte ranges of one page that differ from the image
//	             the log last held for it: [off u32 | len u32 | bytes]
//	             runs, ascending and non-overlapping (see EncodeDelta)
//	commit     — durable point: [tag u64 | meta blob]; every page and
//	             page-delta record since the previous commit becomes
//	             redo state
//	checkpoint — same payload as commit, but written as the FIRST
//	             record of a fresh segment; it anchors recovery (the
//	             page file is guaranteed to hold the checkpointed
//	             state, so older segments are no longer needed)
//
// Framing is a 28-byte header followed by the payload:
//
//	[crc32c u32 | magic u32 | lsn u64 | type u8 | flags u8 | rsvd u16 |
//	 pid u32 | payloadLen u32 | payload ...]
//
// The CRC (Castagnoli, the storage-standard polynomial) covers the
// header after the CRC field plus the payload, so a flipped bit
// anywhere in the frame is detected. Any framing damage surfaces as
// buffer.ErrWALCorrupt — never a panic, never silent acceptance.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/buffer"
)

// Magic marks every WAL record ("FPWL").
const Magic = 0x4650574C

// headerSize is the fixed record header length in bytes.
const headerSize = 28

// maxPayload bounds a single record's payload (64 MiB) so a corrupt
// length field cannot drive a multi-gigabyte allocation during a scan.
const maxPayload = 64 << 20

// castagnoli is the CRC32-C table shared with the page checksum layer.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// RecordType discriminates WAL records.
type RecordType uint8

// Record types. Zero is deliberately invalid so that scanning into a
// zero-filled (preallocated or torn) region fails framing immediately.
const (
	RecPage       RecordType = 1
	RecCommit     RecordType = 2
	RecCheckpoint RecordType = 3
	RecPageDelta  RecordType = 4
)

// Record is one decoded WAL record. Payload aliases the scan buffer;
// callers that retain it across decodes must copy.
type Record struct {
	LSN     uint64
	Type    RecordType
	PID     uint32 // page and page-delta records only; zero otherwise
	Payload []byte
}

// corruptf wraps buffer.ErrWALCorrupt with positional detail.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("wal: "+format+": %w", append(args, buffer.ErrWALCorrupt)...)
}

// AppendRecord encodes r and appends the frame to buf.
func AppendRecord(buf []byte, r Record) []byte {
	start := len(buf)
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[4:], Magic)
	binary.LittleEndian.PutUint64(hdr[8:], r.LSN)
	hdr[16] = byte(r.Type)
	binary.LittleEndian.PutUint32(hdr[20:], r.PID)
	binary.LittleEndian.PutUint32(hdr[24:], uint32(len(r.Payload)))
	buf = append(buf, hdr[:]...)
	buf = append(buf, r.Payload...)
	crc := crc32.Checksum(buf[start+4:], castagnoli)
	binary.LittleEndian.PutUint32(buf[start:], crc)
	return buf
}

// DecodeRecord decodes the record at the front of b. It returns the
// record and the number of bytes consumed. A clean end of input (empty
// b) returns io.EOF; any other failure — truncated header or payload,
// bad magic, invalid type, oversized length, CRC mismatch — returns an
// error satisfying errors.Is(err, buffer.ErrWALCorrupt). DecodeRecord
// never panics, whatever the input.
func DecodeRecord(b []byte) (Record, int, error) {
	if len(b) == 0 {
		return Record{}, 0, io.EOF
	}
	if len(b) < headerSize {
		return Record{}, 0, corruptf("truncated header: %d of %d bytes", len(b), headerSize)
	}
	if m := binary.LittleEndian.Uint32(b[4:]); m != Magic {
		return Record{}, 0, corruptf("bad magic %#x", m)
	}
	typ := RecordType(b[16])
	if typ < RecPage || typ > RecPageDelta {
		return Record{}, 0, corruptf("invalid record type %d", typ)
	}
	if b[17] != 0 || b[18] != 0 || b[19] != 0 {
		return Record{}, 0, corruptf("nonzero reserved bytes")
	}
	plen := binary.LittleEndian.Uint32(b[24:])
	if plen > maxPayload {
		return Record{}, 0, corruptf("payload length %d exceeds limit", plen)
	}
	total := headerSize + int(plen)
	if len(b) < total {
		return Record{}, 0, corruptf("truncated payload: %d of %d bytes", len(b), total)
	}
	if want, got := binary.LittleEndian.Uint32(b), crc32.Checksum(b[4:total], castagnoli); got != want {
		return Record{}, 0, corruptf("crc mismatch: stored %#x computed %#x", want, got)
	}
	r := Record{
		LSN:  binary.LittleEndian.Uint64(b[8:]),
		Type: typ,
		PID:  binary.LittleEndian.Uint32(b[20:]),
	}
	if plen > 0 {
		r.Payload = b[headerSize:total]
	}
	return r, total, nil
}

// encodePoint builds the payload shared by commit and checkpoint
// records: the caller's durable-point tag followed by the opaque meta
// blob (tree root, allocator state — owned by the facade layer).
func encodePoint(tag uint64, meta []byte) []byte {
	p := make([]byte, 8+len(meta))
	binary.LittleEndian.PutUint64(p, tag)
	copy(p[8:], meta)
	return p
}

// decodePoint splits a commit/checkpoint payload into tag and meta.
func decodePoint(payload []byte) (tag uint64, meta []byte, err error) {
	if len(payload) < 8 {
		return 0, nil, corruptf("durable-point payload too short: %d bytes", len(payload))
	}
	return binary.LittleEndian.Uint64(payload), payload[8:], nil
}
