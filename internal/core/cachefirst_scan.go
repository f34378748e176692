package core

import (
	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/latch"
	"repro/internal/memsim"
)

// RangeScan implements idx.Index. With JPA enabled (§3.3): leaf pages
// in the range are prefetched through the external jump-pointer array
// (never past the end page), and on entering a leaf page its node
// region is prefetched using the page's slot structure, so entry
// consumption runs at pipelined-miss latency. The scan holds one page
// at a time. On a stale relocation epoch it restarts from the root and
// resumes strictly after the last key already delivered (remaining
// duplicates of that key are skipped — the scan is exact whenever no
// page split overlaps it). A serving tree skips the JPA prefetch: the
// prefetch window is a performance hint with no meaning against the
// frozen clock model.
func (t *CacheFirst) RangeScan(startKey, endKey idx.Key, fn func(idx.Key, idx.TupleID) bool) (int, error) {
	t.ops.Scans.Add(1)
	if startKey > endKey {
		return 0, nil
	}
	// s.lo is the lower bound of the current attempt.
	s := nodeScan{n: &t.pbNode, lo: startKey, hi: endKey, fn: fn}
	var bo latch.Backoff
	for {
		e := t.relocEpoch()
		cur, ok, err := t.descend(s.lo, true, e, false)
		var pids []uint32
		if ok && t.scanPrefetch() && !cur.isNil() {
			var endLeaf ptr
			if endLeaf, _, err = t.descend(endKey, false, e, false); err == nil {
				err = t.jpa.Iterate(cur.pid, func(pid uint32) bool {
					pids = append(pids, pid)
					return pid != endLeaf.pid
				})
			}
		}
		if ok && err == nil {
			ok, err = t.scanForward(&s, cur, e, pids)
		}
		if ok || err != nil {
			return s.count, err
		}
		if s.count > 0 {
			if s.last == ^idx.Key(0) {
				return s.count, nil // no key sorts after the last one delivered
			}
			s.lo = s.last + 1
		}
		t.epochRestart(&bo)
	}
}

// scanForward hands s the leaf-node chain from cur, at the first entry
// past s.lo, prefetching pids, the range's leaf pages. ok=false
// reports an error or a stale epoch e.
func (t *CacheFirst) scanForward(s *nodeScan, cur ptr, e uint64, pids []uint32) (ok bool, err error) {
	pfNext, pageIdx := 0, -1
	var pg buffer.Page
	first := true
	for !cur.isNil() {
		if cur.pid != pg.ID {
			for pfNext < len(pids) && pfNext <= pageIdx+1+t.pfWindow {
				if err := t.pool.Prefetch(pids[pfNext]); err != nil {
					t.unpinIf(pg)
					return false, err
				}
				pfNext++
			}
			t.unpinIf(pg)
			pg = buffer.Page{}
			if ok, err = t.hop(&pg, cur.pid, e, false); !ok {
				return false, err
			}
			pageIdx++
			t.touchPageHeader(pg)
			if t.scanPrefetch() {
				// Cache-granularity prefetch of the page's node slots.
				t.mm.Prefetch(pg.Addr+lineSize, (cfNextFree(pg.Data)-1)*lineSize)
			}
		}
		t.visitScanNode(pg, cur.off)
		d := pg.Data
		from := 0
		if first {
			// Position past the keys below the attempt's lower bound.
			slot, _ := t.search(pg, cur.off, s.lo, true)
			from = slot + 1
			first = false
		}
		if s.node(pg, cur.off, from, t.slots(d, cur.off)) {
			break
		}
		cur = t.cNextLeaf(d, cur.off)
	}
	t.unpinIf(pg)
	return true, nil
}

// scanPrefetch reports whether scans prefetch leaf pages through the
// JPA and node lines page-wide: EnableJPA, in simulate mode.
func (t *CacheFirst) scanPrefetch() bool { return t.jpaOn && !t.conc }

// visitScanNode charges a scan's visit to a leaf node: a full node
// visit, or under the page-wide node prefetch only the header access.
func (t *CacheFirst) visitScanNode(pg buffer.Page, off int) {
	if !t.scanPrefetch() {
		t.visitNode(pg, off)
		return
	}
	t.mm.Access(pg.Addr+uint64(nodeBase(off)), cfNodeHdr)
	t.mm.Busy(memsim.CostNodeVisit)
}

func (t *CacheFirst) touchPageHeader(pg buffer.Page) {
	t.mm.Access(pg.Addr, 16)
	t.mm.Busy(memsim.CostNodeVisit)
}

// unpinIf unpins pg unless it is the zero page.
func (t *CacheFirst) unpinIf(pg buffer.Page) {
	if pg.Valid() {
		t.pool.Unpin(pg, false)
	}
}
