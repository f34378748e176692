package prefetch

import (
	"bytes"
	"math"
	"testing"
	"unsafe"
)

// TestRangeClamps drives Range with every kind of out-of-range request
// an unvalidated optimistic snapshot can produce. A prefetch has no
// visible effect, so what can be checked is that nothing panics and no
// byte of the page, or of the memory either side of it, changes.
func TestRangeClamps(t *testing.T) {
	arena := make([]byte, 3*1024)
	for i := range arena {
		arena[i] = byte(i * 7)
	}
	want := bytes.Clone(arena)
	page := arena[1024:2048:2048]
	unaligned := arena[1024+13 : 2048-5]
	for _, d := range [][]byte{page, unaligned, page[:0], nil} {
		for _, off := range []int{math.MinInt, -65, -1, 0, 1, 63, 64, 960, 1023, 1024, 1025, 1 << 20, math.MaxInt} {
			for _, size := range []int{math.MinInt, -64, 0, 1, 64, 65, 1024, 4096, math.MaxInt} {
				Range(d, off, size)
			}
		}
	}
	if !bytes.Equal(arena, want) {
		t.Fatal("Range changed memory")
	}
}

func TestLinesNonPositiveCount(t *testing.T) {
	var x [lineSize]byte
	for _, n := range []int{0, -1, math.MinInt} {
		Lines(unsafe.Pointer(&x[0]), n)
	}
	Lines(unsafe.Pointer(&x[0]), 1)
	if x != [lineSize]byte{} {
		t.Fatal("Lines changed memory")
	}
}
