package core

import (
	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/memsim"
)

// RangeScan implements idx.Index. The page walk is pagetree.Scan; with
// JPA enabled (§3.3) it prefetches at two granularities:
//
//   - I/O granularity: the in-page leaf nodes of leaf-parent pages form
//     a jump-pointer array over the leaf pages (sibling links within a
//     page are node offsets; across pages they live in page headers).
//     The walk locates the range's end page first so prefetching never
//     overshoots, then keeps PrefetchWindow leaf pages in flight.
//
//   - Cache granularity: on entering a leaf page ScanLeaf prefetches
//     the page's in-page nodes (the used line region), so consuming
//     entries proceeds at pipelined- rather than full-miss latency.
func (t *DiskFirst) RangeScan(startKey, endKey idx.Key, fn func(idx.Key, idx.TupleID) bool) (int, error) {
	t.ops.Scans.Add(1)
	return t.Scan(startKey, endKey, false, fn)
}

// RangeScanReverse implements idx.Index: descending order via the
// page-level prev links; within a page the forward-only in-page leaf
// chain is collected once and consumed backwards.
func (t *DiskFirst) RangeScanReverse(startKey, endKey idx.Key, fn func(idx.Key, idx.TupleID) bool) (int, error) {
	t.ops.ReverseScans.Add(1)
	return t.Scan(startKey, endKey, true, fn)
}

// ScanLeaf implements pagetree.Layout.
func (t *DiskFirst) ScanLeaf(pg buffer.Page, lo, hi idx.Key, reverse, seek bool, fn func(idx.Key, idx.TupleID) bool) (int, bool) {
	d := pg.Data
	jpa := t.JPA()
	if jpa {
		// Cache-granularity prefetch of the page's node region.
		t.mm.Prefetch(pg.Addr+lineSize, (dfNextFree(d)-1)*lineSize)
	}
	// The in-page leaf chain links forward only: a reverse scan collects
	// it once, behind a 0 that ends the backward walk. A page of the
	// paper's sizes has a few dozen leaf nodes, so the buffer stays on
	// the stack.
	var buf [128]uint16
	chain := append(buf[:0], 0)
	if reverse {
		for off := dfFirstLeaf(d); off != 0; off = t.lNext(d, off) {
			chain = append(chain, uint16(off))
		}
	}
	at := len(chain) - 1 // reverse: the current node's place in chain
	off, from := dfFirstLeaf(d), 0
	if reverse {
		off = int(chain[at])
	}
	if seek {
		// Start at the first entry >= lo, in reverse at the last <= hi.
		k := lo
		if reverse {
			k = hi
		}
		off = t.descendInPage(pg, k, !reverse, nil)
		t.visitLeaf(pg, off)
		from, _ = t.search(pg, off, k, !reverse)
		if !reverse {
			from++
		}
		for at > 0 && int(chain[at]) != off {
			at--
		}
	}
	s := nodeScan{n: &t.pbNode, lo: lo, hi: hi, reverse: reverse, fn: fn}
	for ; off != 0; seek = false {
		if !jpa {
			t.visitLeaf(pg, off)
		} else {
			// The node was prefetched with its page: a lighter visit.
			t.mm.Access(pg.Addr+uint64(nodeBase(off)), dfLeafHdr)
			t.mm.Busy(memsim.CostNodeVisit)
		}
		slots := t.slots(d, off)
		switch {
		case seek: // from is where the search landed
		case reverse:
			from = slots - 1
		default:
			from = 0
		}
		if s.node(pg, off, from, slots) {
			return s.count, true
		}
		if reverse {
			at = max(at-1, 0)
			off = int(chain[at])
		} else {
			off = t.lNext(d, off)
		}
	}
	return s.count, false
}

// JumpPointers implements pagetree.Layout: the in-page leaf nodes of a
// leaf-parent page, in chain order, are its chunk of the I/O
// jump-pointer array.
func (t *DiskFirst) JumpPointers(pg buffer.Page, first, last uint32, extra int, dst []uint32) ([]uint32, bool) {
	d := pg.Data
	for off := dfFirstLeaf(d); off != 0; off = t.lNext(d, off) {
		t.mm.Access(pg.Addr+uint64(nodeBase(off)), dfLeafHdr)
		cnt := t.count(d, off)
		for i := 0; i < cnt; i++ {
			child := t.ptrAt(d, off, i)
			if first != 0 && child != first {
				continue
			}
			first = 0
			t.mm.Access(pg.Addr+uint64(t.ptrPos(off, i)), 4)
			dst = append(dst, child)
			if child == last {
				// The ablation runs on to the end of this in-page node.
				for j := i + 1; j < cnt && j <= i+extra; j++ {
					dst = append(dst, t.ptrAt(d, off, j))
				}
				return dst, true
			}
		}
	}
	return dst, false
}

// Prev implements pagetree.Layout.
func (t *DiskFirst) Prev(d []byte) uint32 { return dfPrevPage(d) }
