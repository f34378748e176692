package core

import (
	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/memsim"
)

// RangeScanReverse implements idx.Index for the cache-first tree. Leaf
// nodes are chained forward only, but leaf pages cover contiguous key
// ranges and the external jump-pointer array orders them — so the scan
// walks pages backwards through the JPA, consuming each page's node
// chain in reverse; predecessor pages are prefetched through the same
// reverse iteration when JPA prefetching is enabled.
func (t *CacheFirst) RangeScanReverse(startKey, endKey idx.Key, fn func(idx.Key, idx.TupleID) bool) (int, error) {
	t.ops.ReverseScans.Add(1)
	if t.conc {
		return t.rangeScanReverseConc(startKey, endKey, fn)
	}
	if root, _ := t.rootPtrHeight(); root.isNil() || startKey > endKey {
		return 0, nil
	}
	endAt, err := t.leafNodeFor(endKey, false)
	if err != nil {
		return 0, err
	}
	// Leaf pages of the range in reverse order, from the JPA.
	var pids []uint32
	if err := t.jpa.IterateReverse(endAt.pid, func(pid uint32) bool {
		pids = append(pids, pid)
		return true // bounded below by the startKey check during the scan
	}); err != nil {
		return 0, err
	}

	s := nodeScan{n: &t.pbNode, lo: startKey, hi: endKey, reverse: true, fn: fn}
	first := true
	pfNext := 0
	for pageIdx, pid := range pids {
		if t.jpaOn {
			for pfNext < len(pids) && pfNext <= pageIdx+t.pfWindow {
				if err := t.pool.Prefetch(pids[pfNext]); err != nil {
					return s.count, err
				}
				pfNext++
			}
		}
		pg, err := t.pool.Get(pid)
		if err != nil {
			return s.count, err
		}
		t.touchPageHeader(pg)
		if t.jpaOn {
			t.mm.Prefetch(pg.Addr+lineSize, (cfNextFree(pg.Data)-1)*lineSize)
		}
		done, err := t.reverseScanPage(pg, &s, first, endAt)
		t.pool.Unpin(pg, false)
		if err != nil || done {
			return s.count, err
		}
		first = false
	}
	return s.count, nil
}

// reverseScanPage hands s one leaf page's nodes in reverse chain order;
// on the scan's first page it starts in node endAt, at the last entry
// <= s.hi. done reports that the scan is over. The lighter node visit
// belongs to the page-wide node prefetch only the sequential scan
// issues.
func (t *CacheFirst) reverseScanPage(pg buffer.Page, s *nodeScan, first bool, endAt ptr) (done bool, err error) {
	offs, err := t.leafNodesInChainOrder(pg)
	if err != nil {
		return true, err
	}
	oi := len(offs) - 1
	from := 0
	if first {
		for j, o := range offs {
			if o == endAt.off {
				oi = j
				break
			}
		}
		t.visitNode(pg, endAt.off)
		from, _ = t.search(pg, endAt.off, s.hi, false)
	}
	d := pg.Data
	for ; oi >= 0; oi, first = oi-1, false {
		off := offs[oi]
		if !t.jpaOn || t.conc {
			t.visitNode(pg, off)
		} else {
			t.mm.Access(pg.Addr+uint64(nodeBase(off)), cfNodeHdr)
			t.mm.Busy(memsim.CostNodeVisit)
		}
		slots := t.slots(d, off)
		if !first {
			from = slots - 1
		}
		if s.node(pg, off, from, slots) {
			return true, nil
		}
	}
	return false, nil
}
