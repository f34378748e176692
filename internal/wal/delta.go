package wal

import (
	"bytes"
	"encoding/binary"
)

// runHeader is the size of one delta run's [off u32 | len u32] header.
// Two changed stretches separated by at most this many equal bytes are
// cheaper as one run, so EncodeDelta merges them.
const runHeader = 8

// EncodeDelta appends to dst the page-delta payload that turns base
// into img: one run per changed stretch, each carrying img's absolute
// bytes, in ascending offset order. It reports false, leaving the
// appended bytes undefined, as soon as the payload would exceed limit
// bytes (the caller then logs a full image). An unchanged page encodes
// to an empty payload.
//
// A run may cover a few unchanged bytes (a merged gap), but every byte
// where img differs from base lies inside some run. Recovery's
// torn-page argument rests on that property (DESIGN.md §12).
func EncodeDelta(dst, base, img []byte, limit int) ([]byte, bool) {
	n := len(img)
	start := len(dst)
	for i := 0; ; {
		i += commonPrefix(base[i:n], img[i:])
		if i == n {
			return dst, true
		}
		end := i + 1
		for k := end; k < n && k-end <= runHeader; k++ {
			if base[k] != img[k] {
				end = k + 1
			}
		}
		if len(dst)-start+runHeader+end-i > limit {
			return dst, false
		}
		var hdr [runHeader]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(i))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(end-i))
		dst = append(dst, hdr[:]...)
		dst = append(dst, img[i:end]...)
		i = end
	}
}

// commonPrefix returns the length of the longest common prefix of a and
// b, comparing 256 bytes (four cache lines), then a word, then a byte at
// a time.
func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for i+256 <= n && bytes.Equal(a[i:i+256], b[i:i+256]) {
		i += 256
	}
	for i+8 <= n && binary.LittleEndian.Uint64(a[i:]) == binary.LittleEndian.Uint64(b[i:]) {
		i += 8
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// ApplyDelta writes a page-delta payload's runs into page. The whole
// payload is validated first, so a malformed one — empty, a truncated
// run, an empty run, runs out of order or overlapping, a run past the
// page's end — changes nothing and returns an error satisfying
// errors.Is(err, buffer.ErrWALCorrupt). It never writes outside page.
func ApplyDelta(page, payload []byte) error {
	if len(payload) == 0 {
		return corruptf("empty page delta")
	}
	prev := uint64(0)
	for off := 0; off < len(payload); {
		if len(payload)-off < runHeader {
			return corruptf("page delta: truncated run header at %d", off)
		}
		at := uint64(binary.LittleEndian.Uint32(payload[off:]))
		n := uint64(binary.LittleEndian.Uint32(payload[off+4:]))
		switch {
		case n == 0:
			return corruptf("page delta: empty run at %d", off)
		case at < prev:
			return corruptf("page delta: run at offset %d overlaps or precedes the previous run's end %d", at, prev)
		case at+n > uint64(len(page)):
			return corruptf("page delta: run [%d, %d) past the %d-byte page", at, at+n, len(page))
		case n > uint64(len(payload)-off-runHeader):
			return corruptf("page delta: run at %d truncated", off)
		}
		prev = at + n
		off += runHeader + int(n)
	}
	for off := 0; off < len(payload); {
		at := int(binary.LittleEndian.Uint32(payload[off:]))
		n := int(binary.LittleEndian.Uint32(payload[off+4:]))
		copy(page[at:at+n], payload[off+runHeader:])
		off += runHeader + n
	}
	return nil
}
