// Package prefetch issues hardware cache prefetches: PREFETCHT0 on
// amd64, PRFM PLDL1KEEP on arm64, nothing elsewhere. A prefetch is a
// hint with no architectural effect — it cannot fault, and it neither
// reads nor writes as far as the Go memory model (or the race detector,
// which does not instrument assembly) is concerned — so it is safe to
// issue for bytes a concurrent writer may be changing.
package prefetch

import "unsafe"

// lineSize is the prefetch stride in bytes.
const lineSize = 64

// Range prefetches every cache line overlapping d[off:off+size]. The
// range is clamped to d — a negative, oversized or empty range
// prefetches what overlaps and never panics — so callers may pass
// offsets read from an unvalidated optimistic page snapshot. d is never
// dereferenced.
func Range(d []byte, off, size int) {
	if size <= 0 {
		return
	}
	if off < 0 {
		size += off
		off = 0
	}
	if size > len(d)-off {
		size = len(d) - off
	}
	if size <= 0 {
		return
	}
	base := unsafe.Pointer(unsafe.SliceData(d))
	skew := int(uintptr(base)+uintptr(off)) & (lineSize - 1)
	Lines(unsafe.Add(base, off), (skew+size+lineSize-1)/lineSize)
}
