package core

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/memsim"
)

// RangeScan implements idx.Index. With JPA enabled (§3.3): leaf pages
// in the range are prefetched through the external jump-pointer array
// (never past the end page), and on entering a leaf page its node
// region is prefetched using the page's slot structure, so entry
// consumption runs at pipelined-miss latency.
func (t *CacheFirst) RangeScan(startKey, endKey idx.Key, fn func(idx.Key, idx.TupleID) bool) (int, error) {
	t.ops.Scans.Add(1)
	if t.conc {
		return t.rangeScanConc(startKey, endKey, fn)
	}
	if root, _ := t.rootPtrHeight(); root.isNil() || startKey > endKey {
		return 0, nil
	}
	cur, err := t.leafNodeFor(startKey, true)
	if err != nil {
		return 0, err
	}
	var pids []uint32
	if t.jpaOn {
		endLeaf, err := t.leafNodeFor(endKey, false)
		if err != nil {
			return 0, err
		}
		if err := t.jpa.Iterate(cur.pid, func(pid uint32) bool {
			pids = append(pids, pid)
			return pid != endLeaf.pid
		}); err != nil {
			return 0, err
		}
	}

	s := nodeScan{n: &t.pbNode, lo: startKey, hi: endKey, fn: fn}
	pfNext, pageIdx := 0, -1
	var pg buffer.Page
	var lastPID uint32
	first := true
	for !cur.isNil() {
		if cur.pid != lastPID {
			if t.jpaOn {
				for pfNext < len(pids) && pfNext <= pageIdx+1+t.pfWindow {
					if err := t.pool.Prefetch(pids[pfNext]); err != nil {
						return s.count, err
					}
					pfNext++
				}
			}
			if pg.Valid() {
				t.pool.Unpin(pg, false)
			}
			if pg, err = t.pool.Get(cur.pid); err != nil {
				return s.count, err
			}
			lastPID = cur.pid
			pageIdx++
			t.touchPageHeader(pg)
			if t.jpaOn {
				// Cache-granularity prefetch of the page's node slots.
				t.mm.Prefetch(pg.Addr+lineSize, (cfNextFree(pg.Data)-1)*lineSize)
			}
		}
		if !t.jpaOn {
			t.visitNode(pg, cur.off)
		} else {
			t.mm.Access(pg.Addr+uint64(nodeBase(cur.off)), cfNodeHdr)
			t.mm.Busy(memsim.CostNodeVisit)
		}
		d := pg.Data
		from := 0
		if first {
			slot, _ := t.search(pg, cur.off, startKey, true)
			from = slot + 1
			first = false
		}
		if s.node(pg, cur.off, from, t.slots(d, cur.off)) {
			t.pool.Unpin(pg, false)
			return s.count, nil
		}
		cur = t.cNextLeaf(d, cur.off)
	}
	if pg.Valid() {
		t.pool.Unpin(pg, false)
	}
	return s.count, nil
}

func (t *CacheFirst) touchPageHeader(pg buffer.Page) {
	t.mm.Access(pg.Addr, 16)
	t.mm.Busy(memsim.CostNodeVisit)
}

// leafNodeFor descends to the leaf node for k (lt selects strictly-less
// descent). The descent couples pins (child pinned before the parent is
// released), so it is reserved for single-threaded mode and for
// writers; concurrent readers use leafNodeForConc.
func (t *CacheFirst) leafNodeFor(k idx.Key, lt bool) (ptr, error) {
	cur, height := t.rootPtrHeight()
	var pg buffer.Page
	for lvl := height - 1; lvl > 0; lvl-- {
		npg, pinned, err := t.getPage(pg, cur.pid)
		if err != nil {
			if pg.Valid() {
				t.pool.Unpin(pg, false)
			}
			return nilPtr, err
		}
		if pinned && pg.Valid() {
			t.pool.Unpin(pg, false)
		}
		pg = npg
		t.visitNode(pg, cur.off)
		slot, _ := t.search(pg, cur.off, k, lt)
		if slot < 0 {
			slot = 0
		}
		cur = t.cChild(pg.Data, cur.off, slot)
		if cur.isNil() {
			t.pool.Unpin(pg, false)
			return nilPtr, fmt.Errorf("core: nil child during cache-first descent")
		}
	}
	if pg.Valid() {
		t.pool.Unpin(pg, false)
	}
	return cur, nil
}
