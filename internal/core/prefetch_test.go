package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/buffer"
	"repro/internal/memsim"
)

// checkPrefetchNode calls prefetchNode the way the optimistic descents
// do — frozen model, address-less page view — and requires that it
// neither panics nor changes the page, whatever off and lines are.
func checkPrefetchNode(t *testing.T, mm *memsim.Model, d []byte, off, lines int) {
	t.Helper()
	want := bytes.Clone(d)
	prefetchNode(mm, buffer.Page{Data: d}, off, lines)
	if !bytes.Equal(d, want) {
		t.Fatalf("prefetchNode(off=%d, lines=%d) changed the page", off, lines)
	}
}

// TestPrefetchNodeClamps covers the torn (off, lines) pairs an
// unvalidated snapshot can carry: negative, past the page, straddling
// its end, empty, and large enough to overflow the byte arithmetic.
func TestPrefetchNodeClamps(t *testing.T) {
	mm := memsim.NewDefault()
	mm.SetConcurrent(true)
	d := make([]byte, 4096)
	for i := range d {
		d[i] = byte(i)
	}
	pageLines := len(d) / lineSize
	for _, off := range []int{math.MinInt, -1 << 58, -1, 0, 1, pageLines - 1, pageLines, pageLines + 1, 0xffff, 1 << 58, math.MaxInt} {
		for _, lines := range []int{math.MinInt, -1, 0, 1, 8, pageLines, pageLines + 1, 1 << 58, math.MaxInt} {
			checkPrefetchNode(t, mm, d, off, lines)
		}
	}
	checkPrefetchNode(t, mm, nil, 1, 8)
}
