package core

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/latch"
)

// Concurrent read protocol for the cache-first tree.
//
// Crab-style latch coupling is unsafe here: page splits (the Figure 9
// maneuvers) discover the pages they touch *during* the mutation —
// back-pointer walks, sideways leaf-parent chain walks, overflow
// allocation — so no global latch order covers a writer, and a reader
// holding a parent latch while acquiring a child can close a cycle
// with a splitting writer. Instead, concurrent readers hold exactly
// ONE shared latch at a time (the old page is unpinned before the next
// is pinned), so a reader never holds-and-waits and no cycle can
// involve it; writers serialize on wMu, leaving at most one
// hold-and-waiter in the system — deadlock-free by construction.
//
// Because a reader releases a page before following a pointer out of
// it, the pointer may be invalidated by a concurrent page split
// relocating nodes. Splits bracket themselves with relocBegin/relocEnd
// on the reloc epoch counter (odd while a split is in flight); a
// reader samples an even epoch before descending and re-validates it
// after every cross-page pin. A changed epoch means node addresses may
// have moved — the operation restarts from the root (scans resume
// after the last key already delivered). In-page node splits do not
// bump the epoch: the strictly-less descent lands at-or-left of the
// target and the forward leaf-node chain walk recovers entries that
// moved right within (or out of) the node.

// descendConc walks from the root to the leaf node for k (lt selects
// strictly-less descent) holding one shared latch at a time, validating
// the relocation epoch e after every page transition. ok=false reports
// a stale epoch: the caller restarts. On ok the returned page is pinned
// and holds the returned leaf node; a nil cur means the tree is empty.
func (t *CacheFirst) descendConc(k idx.Key, lt bool, e uint64) (buffer.Page, ptr, bool, error) {
	root, height := t.rootPtrHeight()
	if root.isNil() {
		return buffer.Page{}, nilPtr, true, nil
	}
	pg, err := t.pool.Get(root.pid)
	if err != nil {
		return buffer.Page{}, nilPtr, false, err
	}
	if t.reloc.Load() != e {
		t.pool.Unpin(pg, false)
		return buffer.Page{}, nilPtr, false, nil
	}
	cur := root
	for lvl := height - 1; lvl > 0; lvl-- {
		t.visitNode(pg, cur.off)
		slot, _ := t.search(pg, cur.off, k, lt)
		if slot < 0 {
			slot = 0
		}
		child := t.cChild(pg.Data, cur.off, slot)
		if child.isNil() {
			t.pool.Unpin(pg, false)
			return buffer.Page{}, nilPtr, false, fmt.Errorf("core: nil child during cache-first descent")
		}
		if child.pid != pg.ID {
			t.pool.Unpin(pg, false)
			if pg, err = t.pool.Get(child.pid); err != nil {
				return buffer.Page{}, nilPtr, false, err
			}
			if t.reloc.Load() != e {
				t.pool.Unpin(pg, false)
				return buffer.Page{}, nilPtr, false, nil
			}
		}
		cur = child
	}
	return pg, cur, true, nil
}

// findFirstConc is findFirst under the one-latch protocol: descend,
// then walk the forward leaf-node chain for the first entry == k,
// restarting from the root whenever the relocation epoch moves.
func (t *CacheFirst) findFirstConc(k idx.Key) (buffer.Page, ptr, int, bool, error) {
	var bo latch.Backoff
	for {
		e := t.relocEpoch()
		pg, cur, ok, err := t.descendConc(k, true, e)
		if err != nil {
			return buffer.Page{}, nilPtr, 0, false, err
		}
		if !ok {
			t.epochRestart(&bo)
			continue
		}
		if cur.isNil() {
			return buffer.Page{}, nilPtr, 0, false, nil
		}
		stale := false
		for !cur.isNil() {
			if cur.pid != pg.ID {
				t.pool.Unpin(pg, false)
				if pg, err = t.pool.Get(cur.pid); err != nil {
					return buffer.Page{}, nilPtr, 0, false, err
				}
				if t.reloc.Load() != e {
					t.pool.Unpin(pg, false)
					stale = true
					break
				}
			}
			t.visitNode(pg, cur.off)
			slot, _ := t.search(pg, cur.off, k, true)
			slot = t.nextOccupied(pg.Data, cur.off, slot+1)
			if slot >= 0 {
				t.mm.Access(pg.Addr+uint64(t.keyPos(cur.off, slot)), 4)
				if t.key(pg.Data, cur.off, slot) == k {
					return pg, cur, slot, true, nil
				}
				t.pool.Unpin(pg, false)
				return buffer.Page{}, nilPtr, 0, false, nil
			}
			cur = t.cNextLeaf(pg.Data, cur.off)
		}
		if stale {
			t.epochRestart(&bo)
			continue
		}
		if pg.Valid() {
			t.pool.Unpin(pg, false)
		}
		return buffer.Page{}, nilPtr, 0, false, nil
	}
}

// deleteConc is the writer-side Delete: leaf-only when one leaf page
// decides the answer; otherwise it serializes on wMu like Insert and
// repeats findFirst's walk with exclusive latches (coupling is safe for
// the single wMu writer — nobody else holds-and-waits).
func (t *CacheFirst) deleteConc(k idx.Key) (bool, error) {
	if found, done := t.deleteLeafOpt(k); done {
		return found, nil
	}
	latch.SpinLock(&t.wMu)
	defer t.wMu.Unlock()
	t.pool.Latches().OptWriteFallback()
	root, height := t.rootPtrHeight()
	if root.isNil() {
		return false, nil
	}
	cur := root
	var pg buffer.Page
	release := func() {
		if pg.Valid() {
			t.pool.Unpin(pg, false)
		}
	}
	for lvl := height - 1; lvl > 0; lvl-- {
		npg, pinned, err := t.getPageW(pg, cur.pid)
		if err != nil {
			release()
			return false, err
		}
		if pinned && pg.Valid() {
			t.pool.Unpin(pg, false)
		}
		pg = npg
		t.visitNode(pg, cur.off)
		slot, _ := t.search(pg, cur.off, k, true)
		if slot < 0 {
			slot = 0
		}
		cur = t.cChild(pg.Data, cur.off, slot)
		if cur.isNil() {
			release()
			return false, fmt.Errorf("core: nil child during cache-first descent")
		}
	}
	for !cur.isNil() {
		npg, pinned, err := t.getPageW(pg, cur.pid)
		if err != nil {
			release()
			return false, err
		}
		if pinned && pg.Valid() {
			t.pool.Unpin(pg, false)
		}
		pg = npg
		found, decided, next := t.deleteInPage(pg, cur, k)
		if decided {
			return found, nil
		}
		cur = next
	}
	release()
	return false, nil
}

// deleteInPage walks the leaf-node chain inside the exclusively latched
// pg from cur to the first entry >= k, removes it if it equals k and
// unpins the page. decided=false leaves pg pinned: the run may start at
// next, in another page (nil: the chain ends, k is absent).
func (t *CacheFirst) deleteInPage(pg buffer.Page, cur ptr, k idx.Key) (found, decided bool, next ptr) {
	for ; cur.pid == pg.ID; cur = t.cNextLeaf(pg.Data, cur.off) {
		t.visitNode(pg, cur.off)
		slot, _ := t.search(pg, cur.off, k, true)
		if slot = t.nextOccupied(pg.Data, cur.off, slot+1); slot >= 0 {
			if found = t.key(pg.Data, cur.off, slot) == k; found {
				t.remove(pg, cur.off, slot)
				t.pool.Unpin(pg, true)
			} else {
				t.pool.Unpin(pg, false)
			}
			return found, true, nilPtr
		}
	}
	return false, false, cur
}

// rangeScanConc delivers [startKey, endKey] under the one-latch
// protocol. On a stale epoch the scan restarts from the root and
// resumes strictly after the last key already delivered (remaining
// duplicates of that key are skipped — the scan is exact whenever no
// page split overlaps it, and in particular whenever writers are
// quiesced). JPA prefetching is skipped: the prefetch window is a
// performance hint with no meaning against the frozen clock model.
func (t *CacheFirst) rangeScanConc(startKey, endKey idx.Key, fn func(idx.Key, idx.TupleID) bool) (int, error) {
	if startKey > endKey {
		return 0, nil
	}
	// s.lo is the lower bound of the current attempt.
	s := nodeScan{n: &t.pbNode, lo: startKey, hi: endKey, fn: fn}
	var bo latch.Backoff
	for {
		e := t.relocEpoch()
		pg, cur, ok, err := t.descendConc(s.lo, true, e)
		if err != nil {
			return s.count, err
		}
		if !ok {
			t.epochRestart(&bo)
			continue
		}
		if cur.isNil() {
			return s.count, nil
		}
		stale := false
		first := true
		for !cur.isNil() {
			if cur.pid != pg.ID {
				t.pool.Unpin(pg, false)
				if pg, err = t.pool.Get(cur.pid); err != nil {
					return s.count, err
				}
				if t.reloc.Load() != e {
					t.pool.Unpin(pg, false)
					stale = true
					break
				}
			}
			t.visitNode(pg, cur.off)
			d := pg.Data
			from := 0
			if first {
				// Position past the keys below the attempt's lower bound.
				slot, _ := t.search(pg, cur.off, s.lo, true)
				from = slot + 1
				first = false
			}
			if s.node(pg, cur.off, from, t.slots(d, cur.off)) {
				t.pool.Unpin(pg, false)
				return s.count, nil
			}
			cur = t.cNextLeaf(d, cur.off)
		}
		if !stale {
			if pg.Valid() {
				t.pool.Unpin(pg, false)
			}
			return s.count, nil
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

// rangeScanReverseConc mirrors RangeScanReverse under the one-latch
// protocol: descend to the end leaf, snapshot the reverse page order
// from the JPA, then consume each page's node chain in reverse. On a
// stale epoch it restarts with the upper bound clamped strictly below
// the last key delivered; like the forward scan it is exact whenever
// no page split overlaps it.
func (t *CacheFirst) rangeScanReverseConc(startKey, endKey idx.Key, fn func(idx.Key, idx.TupleID) bool) (int, error) {
	if startKey > endKey {
		return 0, nil
	}
	// s.hi is the upper bound of the current attempt.
	s := nodeScan{n: &t.pbNode, lo: startKey, hi: endKey, reverse: true, fn: fn}
	var bo latch.Backoff
restart:
	for {
		e := t.relocEpoch()
		pg, endAt, ok, err := t.descendConc(s.hi, false, e)
		if err != nil {
			return s.count, err
		}
		if !ok {
			t.epochRestart(&bo)
			continue
		}
		if endAt.isNil() {
			return s.count, nil
		}
		// Reverse page order from the JPA. The snapshot may miss pages
		// split off after it is taken; the epoch check below catches
		// exactly those relocations.
		var pids []uint32
		t.jpaMu.RLock()
		err = t.jpa.IterateReverse(endAt.pid, func(pid uint32) bool {
			pids = append(pids, pid)
			return true
		})
		t.jpaMu.RUnlock()
		t.pool.Unpin(pg, false)
		if err != nil {
			return s.count, err
		}
		for i, pid := range pids {
			pg, err := t.pool.Get(pid)
			if err != nil {
				return s.count, err
			}
			if t.reloc.Load() != e {
				t.pool.Unpin(pg, false)
				if s.count > 0 {
					if s.last == 0 {
						return s.count, nil // no key sorts before the last one delivered
					}
					s.hi = s.last - 1
				}
				t.epochRestart(&bo)
				continue restart
			}
			done, err := t.reverseScanPage(pg, &s, i == 0, endAt)
			t.pool.Unpin(pg, false)
			if err != nil || done {
				return s.count, err
			}
		}
		return s.count, nil
	}
}

// searchBatchConc resolves each key through findFirstConc. The batched
// ⟨page, offset⟩ frontier is unsafe under concurrent relocation, and
// per-key lookups touch no per-tree scratch, so batches from many
// goroutines proceed fully in parallel under shared latches.
func (t *CacheFirst) searchBatchConc(keys []idx.Key, out []idx.SearchResult, base int) ([]idx.SearchResult, error) {
	for ki, k := range keys {
		pg, at, slot, found, err := t.findFirstConc(k)
		if err != nil {
			return out, err
		}
		if found {
			t.mm.Access(pg.Addr+uint64(t.ptrPos(at.off, slot)), 4)
			tid := t.ptrAt(pg.Data, at.off, slot)
			t.pool.Unpin(pg, false)
			out[base+ki] = idx.SearchResult{TID: tid, Found: true}
		} else {
			out[base+ki] = idx.SearchResult{}
		}
	}
	return out, nil
}
