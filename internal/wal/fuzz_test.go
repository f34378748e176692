package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/buffer"
)

// FuzzWALDecode drives arbitrary bytes through the WAL record decoder
// and the recovery-style scan loop. The contract mirrors
// FuzzTriggerSchedule's: whatever the input — truncated tails, garbage,
// bit-flipped frames, pathological length fields — the decoder must
// never panic and never silently accept a damaged frame; every failure
// is io.EOF (clean end) or a typed buffer.ErrWALCorrupt. Frames that do
// decode must re-encode byte-identically (no normalization loss).
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 256))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	var stream []byte
	stream = AppendRecord(stream, Record{LSN: 1, Type: RecCheckpoint, Payload: encodePoint(0, nil)})
	stream = AppendRecord(stream, Record{LSN: 2, Type: RecPage, PID: 5, Payload: bytes.Repeat([]byte{7}, 96)})
	stream = AppendRecord(stream, Record{LSN: 3, Type: RecCommit, Payload: encodePoint(9, []byte("meta"))})
	f.Add(stream)
	f.Add(stream[:len(stream)-11]) // torn tail
	flipped := append([]byte(nil), stream...)
	flipped[40] ^= 0x20
	f.Add(flipped)
	hdr := append([]byte(nil), stream[:headerSize]...)
	f.Add(hdr)

	f.Fuzz(func(t *testing.T, data []byte) {
		off := 0
		for {
			rec, n, err := DecodeRecord(data[off:])
			if err != nil {
				if err != io.EOF && !errors.Is(err, buffer.ErrWALCorrupt) {
					t.Fatalf("untyped decode error at %d: %v", off, err)
				}
				break
			}
			if n < headerSize {
				t.Fatalf("decoder consumed %d < header size", n)
			}
			re := AppendRecord(nil, rec)
			if !bytes.Equal(re, data[off:off+n]) {
				t.Fatalf("re-encode mismatch at %d", off)
			}
			if rec.Type == RecCommit || rec.Type == RecCheckpoint {
				if _, _, derr := decodePoint(rec.Payload); derr != nil &&
					!errors.Is(derr, buffer.ErrWALCorrupt) {
					t.Fatalf("untyped point error: %v", derr)
				}
			}
			off += n
		}
	})
}

// FuzzPageDelta drives arbitrary payloads through ApplyDelta on pages of
// arbitrary size. Whatever the input — overlapping, unordered,
// out-of-range or truncated runs — it must never panic and never write
// outside the page; a rejected payload is a typed buffer.ErrWALCorrupt
// and leaves the page untouched, and an accepted one changes only bytes
// its runs cover.
func FuzzPageDelta(f *testing.F) {
	base := bytes.Repeat([]byte{3}, 64)
	img := append([]byte(nil), base...)
	img[0], img[20], img[63] = 9, 9, 9
	valid, _ := EncodeDelta(nil, base, img, 64)
	f.Add(valid, uint16(64))
	f.Add(valid, uint16(63))                                               // last run past the end
	f.Add(valid[:len(valid)-1], uint16(64))                                // truncated
	f.Add(append(append([]byte(nil), valid...), valid[:9]...), uint16(64)) // overlapping
	f.Add([]byte{}, uint16(16))
	f.Add(bytes.Repeat([]byte{0xFF}, 24), uint16(4096))

	const guard = 32
	f.Fuzz(func(t *testing.T, payload []byte, size uint16) {
		n := int(size % 8192)
		buf := make([]byte, guard+n+guard)
		for i := range buf {
			buf[i] = 0xA5
		}
		page := buf[guard : guard+n : guard+n]
		for i := range page {
			page[i] = byte(i)
		}
		before := append([]byte(nil), page...)
		err := ApplyDelta(page, payload)
		for i := 0; i < guard; i++ {
			if buf[i] != 0xA5 || buf[guard+n+i] != 0xA5 {
				t.Fatal("ApplyDelta wrote outside the page")
			}
		}
		if err != nil {
			if !errors.Is(err, buffer.ErrWALCorrupt) {
				t.Fatalf("untyped delta error: %v", err)
			}
			if !bytes.Equal(page, before) {
				t.Fatal("rejected delta modified the page")
			}
			return
		}
		covered := make([]bool, n)
		for off := 0; off < len(payload); {
			at := int(binary.LittleEndian.Uint32(payload[off:]))
			l := int(binary.LittleEndian.Uint32(payload[off+4:]))
			for i := at; i < at+l; i++ {
				covered[i] = true
			}
			off += runHeader + l
		}
		for i := range page {
			if !covered[i] && page[i] != before[i] {
				t.Fatalf("byte %d changed outside every run", i)
			}
		}
	})
}
