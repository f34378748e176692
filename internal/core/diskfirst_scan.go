package core

import (
	"repro/internal/idx"
	"repro/internal/memsim"
)

// RangeScan implements idx.Index. With JPA enabled (§3.3):
//
//   - I/O granularity: the in-page leaf nodes of leaf-parent pages form
//     a jump-pointer array over the leaf pages (sibling links within a
//     page are node offsets; across pages they live in page headers).
//     The scan locates the range's end page first so prefetching never
//     overshoots, then keeps PrefetchWindow leaf pages in flight.
//
//   - Cache granularity: on entering a leaf page the scan prefetches
//     the page's in-page nodes (the used line region), so consuming
//     entries proceeds at pipelined- rather than full-miss latency.
func (t *DiskFirst) RangeScan(startKey, endKey idx.Key, fn func(idx.Key, idx.TupleID) bool) (int, error) {
	t.ops.Scans.Add(1)
	root, height := t.RootHeight()
	if root == 0 || startKey > endKey {
		return 0, nil
	}
	startLeaf, err := t.LeafFor(root, height, startKey, true)
	if err != nil {
		return 0, err
	}
	var pids []uint32
	if t.jpa && height > 1 {
		endLeaf, err := t.LeafFor(root, height, endKey, false)
		if err != nil {
			return 0, err
		}
		if pids, err = t.leafPagesBetween(root, height, startKey, startLeaf, endLeaf); err != nil {
			return 0, err
		}
	}

	count := 0
	pfNext, pageIdx := 0, 0
	pid := startLeaf
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
			// Cache-granularity prefetch of the page's node region.
			t.mm.Prefetch(pg.Addr+lineSize, (dfNextFree(d)-1)*lineSize)
		}
		off := dfFirstLeaf(d)
		i := 0
		if first {
			off = t.descendInPage(pg, startKey, true, nil)
			t.visitLeaf(pg, off)
			slot, _ := t.searchLeafNode(pg, off, startKey, true)
			i = slot + 1
			first = false
		}
		for off != 0 {
			if !t.jpa {
				t.visitLeaf(pg, off)
			} else {
				t.mm.Access(pg.Addr+uint64(nodeBase(off)), dfLeafHdr)
				t.mm.Busy(memsim.CostNodeVisit)
			}
			gapped := t.gappedLeafPage(d)
			cnt := t.lSlots(d, off)
			for ; i < cnt; i++ {
				// Gap slots hold the sentinel (the max key); skip them
				// before the end-of-range check or they would falsely
				// terminate the scan.
				if gapped && t.lKey(d, off, i) == gapSentinel {
					continue
				}
				t.mm.Access(pg.Addr+uint64(t.lKeyPos(off, i)), 4)
				k := t.lKey(d, off, i)
				if k > endKey {
					t.pool.Unpin(pg, false)
					return count, nil
				}
				if k < startKey {
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
			off = t.lNext(d, off)
			i = 0
		}
		next := dfNextPage(d)
		t.pool.Unpin(pg, false)
		pid = next
		pageIdx++
	}
	return count, nil
}

// leafPagesBetween collects leaf page IDs from startLeaf through
// endLeaf by walking the in-page leaf-node chains of the leaf-parent
// pages (the I/O jump-pointer array).
func (t *DiskFirst) leafPagesBetween(root uint32, height int, startKey idx.Key, startLeaf, endLeaf uint32) ([]uint32, error) {
	pid := root
	for lvl := height - 1; lvl > 1; lvl-- {
		pg, err := t.pool.Get(pid)
		if err != nil {
			return nil, err
		}
		t.TouchHeader(pg)
		child := t.ChildFor(pg, startKey, true)
		t.pool.Unpin(pg, false)
		pid = child
	}
	var pids []uint32
	started := false
	for pid != 0 {
		pg, err := t.pool.Get(pid)
		if err != nil {
			return nil, err
		}
		d := pg.Data
		t.TouchHeader(pg)
		for off := dfFirstLeaf(d); off != 0; off = t.lNext(d, off) {
			t.mm.Access(pg.Addr+uint64(nodeBase(off)), dfLeafHdr)
			cnt := t.lCount(d, off)
			for i := 0; i < cnt; i++ {
				child := t.lPtr(d, off, i)
				if child == startLeaf {
					started = true
				}
				if started {
					t.mm.Access(pg.Addr+uint64(t.lPtrPos(off, i)), 4)
					pids = append(pids, child)
					if child == endLeaf {
						if t.overshoot {
							// Ablation: keep collecting a full window
							// past the end page.
							overshootLeft := t.pfWindow
							for j := i + 1; j < cnt && overshootLeft > 0; j++ {
								pids = append(pids, t.lPtr(d, off, j))
								overshootLeft--
							}
						}
						t.pool.Unpin(pg, false)
						return pids, nil
					}
				}
			}
		}
		next := dfJPNext(d)
		t.pool.Unpin(pg, false)
		pid = next
	}
	return pids, nil
}
