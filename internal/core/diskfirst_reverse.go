package core

import (
	"repro/internal/idx"
	"repro/internal/memsim"
)

// RangeScanReverse implements idx.Index for the disk-first tree:
// descending order via page-level prev links; within a page the
// (forward-only) in-page leaf chain is collected once and consumed in
// reverse. With JPA enabled, the range's leaf pages are gathered from
// the leaf-parent jump-pointer array — the scan knows both end keys up
// front — and prefetched in reverse consumption order.
func (t *DiskFirst) RangeScanReverse(startKey, endKey idx.Key, fn func(idx.Key, idx.TupleID) bool) (int, error) {
	t.ops.ReverseScans.Add(1)
	root, height := t.RootHeight()
	if root == 0 || startKey > endKey {
		return 0, nil
	}
	endLeaf, err := t.LeafFor(root, height, endKey, false)
	if err != nil {
		return 0, err
	}
	var pids []uint32
	if t.jpa && height > 1 {
		startLeaf, err := t.LeafFor(root, height, startKey, true)
		if err != nil {
			return 0, err
		}
		fwd, err := t.leafPagesBetween(root, height, startKey, startLeaf, endLeaf)
		if err != nil {
			return 0, err
		}
		pids = make([]uint32, len(fwd))
		for i, p := range fwd {
			pids[len(fwd)-1-i] = p
		}
	}

	count := 0
	pfNext, pageIdx := 0, 0
	pid := endLeaf
	first := true
	for pid != 0 {
		if t.jpa {
			for pfNext < len(pids) && pfNext <= pageIdx+t.pfWindow {
				if err := t.pool.Prefetch(pids[pfNext]); err != nil {
					return count, err
				}
				pfNext++
			}
		}
		pg, err := t.pool.Get(pid)
		if err != nil {
			return count, err
		}
		t.TouchHeader(pg)
		d := pg.Data
		if t.jpa {
			t.mm.Prefetch(pg.Addr+lineSize, (dfNextFree(d)-1)*lineSize)
		}
		offs := t.inPageLeafOffsets(d)
		oi := len(offs) - 1
		i := -1 // -1 means "start from the node's last entry"
		if first {
			off := t.descendInPage(pg, endKey, false, nil)
			t.visitLeaf(pg, off)
			for j, o := range offs {
				if o == off {
					oi = j
					break
				}
			}
			slot, _ := t.searchLeafNode(pg, off, endKey, false)
			i = slot
			first = false
		}
		for ; oi >= 0; oi-- {
			off := offs[oi]
			if !t.jpa {
				t.visitLeaf(pg, off)
			} else {
				t.mm.Access(pg.Addr+uint64(nodeBase(off)), dfLeafHdr)
				t.mm.Busy(memsim.CostNodeVisit)
			}
			if i < 0 {
				i = t.lSlots(d, off) - 1
			}
			gapped := t.gappedLeafPage(d)
			for ; i >= 0; i-- {
				// Skip gap slots before any bound check: the sentinel is
				// the max key and endKey may legitimately be that value.
				if gapped && t.lKey(d, off, i) == gapSentinel {
					continue
				}
				t.mm.Access(pg.Addr+uint64(t.lKeyPos(off, i)), 4)
				k := t.lKey(d, off, i)
				if k < startKey {
					t.pool.Unpin(pg, false)
					return count, nil
				}
				if k > endKey {
					continue
				}
				t.mm.Access(pg.Addr+uint64(t.lPtrPos(off, i)), 4)
				t.mm.Busy(memsim.CostEntryVisit)
				tid := t.lPtr(d, off, i)
				count++
				if fn != nil && !fn(k, tid) {
					t.pool.Unpin(pg, false)
					return count, nil
				}
			}
		}
		prev := dfPrevPage(d)
		t.pool.Unpin(pg, false)
		pid = prev
		pageIdx++
	}
	return count, nil
}

// inPageLeafOffsets collects the page's in-page leaf node offsets in
// chain (key) order.
func (t *DiskFirst) inPageLeafOffsets(d []byte) []int {
	var offs []int
	for off := dfFirstLeaf(d); off != 0; off = t.lNext(d, off) {
		offs = append(offs, off)
	}
	return offs
}
