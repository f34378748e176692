package core

import (
	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/latch"
)

// RangeScanReverse implements idx.Index for the cache-first tree. Leaf
// nodes are chained forward only, but leaf pages cover contiguous key
// ranges and the external jump-pointer array orders them — so the scan
// walks pages backwards through the JPA, consuming each page's node
// chain in reverse; predecessor pages are prefetched through the same
// reverse iteration when JPA prefetching is enabled. On a stale
// relocation epoch it restarts with the upper bound clamped strictly
// below the last key delivered; like the forward scan it is exact
// whenever no page split overlaps it.
func (t *CacheFirst) RangeScanReverse(startKey, endKey idx.Key, fn func(idx.Key, idx.TupleID) bool) (int, error) {
	t.ops.ReverseScans.Add(1)
	if startKey > endKey {
		return 0, nil
	}
	// s.hi is the upper bound of the current attempt.
	s := nodeScan{n: &t.pbNode, lo: startKey, hi: endKey, reverse: true, fn: fn}
	var bo latch.Backoff
	var pids []uint32
	for {
		e := t.relocEpoch()
		endAt, ok, err := t.descend(s.hi, false, e, false)
		if ok && t.conc && !endAt.isNil() {
			endAt, ok, err = t.lastNodeFor(endAt, s.hi, e)
		}
		if ok && !endAt.isNil() {
			// Leaf pages from endAt's down, in reverse order. The snapshot
			// may miss pages split off after it is taken; the epoch checks
			// catch exactly those relocations.
			pids = pids[:0]
			t.jpaMu.RLock()
			err = t.jpa.IterateReverse(endAt.pid, func(pid uint32) bool {
				pids = append(pids, pid)
				return true // bounded below by the startKey check during the scan
			})
			t.jpaMu.RUnlock()
			if err == nil {
				ok, err = t.scanReverse(&s, endAt, e, pids)
			}
		}
		if ok || err != nil {
			return s.count, err
		}
		if s.count > 0 {
			if s.last == 0 {
				return s.count, nil // no key sorts before the last one delivered
			}
			s.hi = s.last - 1
		}
		t.epochRestart(&bo)
	}
}

// lastNodeFor steps a serving-mode reverse scan right from at, the leaf
// node its descent found for hi, to the last node of the chain whose
// first live key is <= hi. A node split above the leaves moves no
// epoch, so one that raced the descent can leave it left of the
// range's last node, on an earlier page (pagetree's lastLeafFor is the
// same rule over pages). It holds one page at a time and returns with
// none pinned; ok=false reports an error or a stale epoch e.
func (t *CacheFirst) lastNodeFor(at ptr, hi idx.Key, e uint64) (ptr, bool, error) {
	var pg buffer.Page
	var ok bool
	var err error
	for cur := at; !cur.isNil(); cur = t.cNextLeaf(pg.Data, cur.off) {
		if cur.pid != pg.ID {
			if ok, err = t.hop(&pg, cur.pid, e, false); !ok {
				return nilPtr, false, err
			}
		}
		if i := t.nextOccupied(pg.Data, cur.off, 0); i >= 0 {
			if t.key(pg.Data, cur.off, i) > hi {
				break
			}
			at = cur
		}
	}
	t.unpinIf(pg)
	return at, true, nil
}

// scanReverse hands s the leaf pages pids in turn, the first from node
// endAt down. ok=false reports an error or a stale epoch e.
func (t *CacheFirst) scanReverse(s *nodeScan, endAt ptr, e uint64, pids []uint32) (ok bool, err error) {
	pfNext := 0
	for i, pid := range pids {
		for t.scanPrefetch() && pfNext < len(pids) && pfNext <= i+t.pfWindow {
			if err := t.pool.Prefetch(pids[pfNext]); err != nil {
				return false, err
			}
			pfNext++
		}
		var pg buffer.Page
		if ok, err = t.hop(&pg, pid, e, false); !ok {
			return false, err
		}
		t.touchPageHeader(pg)
		if t.scanPrefetch() {
			t.mm.Prefetch(pg.Addr+lineSize, (cfNextFree(pg.Data)-1)*lineSize)
		}
		done, err := t.reverseScanPage(pg, s, i == 0, endAt)
		t.pool.Unpin(pg, false)
		if err != nil || done {
			return true, err
		}
	}
	return true, nil
}

// reverseScanPage hands s one leaf page's nodes in reverse chain order;
// on the scan's first page it starts in node endAt (or the last node
// right of it that starts at or below s.hi), at the last entry <= s.hi.
// done reports that the scan is over.
func (t *CacheFirst) reverseScanPage(pg buffer.Page, s *nodeScan, first bool, endAt ptr) (done bool, err error) {
	offs, err := t.leafNodesInChainOrder(pg)
	if err != nil {
		return true, err
	}
	oi := len(offs) - 1
	from := 0
	d := pg.Data
	if first {
		for j, o := range offs {
			if o == endAt.off {
				oi = j
				break
			}
		}
		// An in-page split that raced the descent moves no epoch, and
		// may have moved endAt's upper entries into nodes chained after
		// it: step right while the next live node starts at or below
		// s.hi (uncharged reads, under the page latch). In simulate mode
		// every such node starts above s.hi, so this never steps.
		for j := oi + 1; j < len(offs); j++ {
			if i := t.nextOccupied(d, offs[j], 0); i >= 0 {
				if t.key(d, offs[j], i) > s.hi {
					break
				}
				oi, endAt.off = j, offs[j]
			}
		}
		t.visitNode(pg, endAt.off)
		from, _ = t.search(pg, endAt.off, s.hi, false)
	}
	for ; oi >= 0; oi, first = oi-1, false {
		off := offs[oi]
		t.visitScanNode(pg, off)
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
