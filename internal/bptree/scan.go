package bptree

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/memsim"
)

// RangeScan implements idx.Index. With JPA enabled it first locates the
// range's end page (so prefetching never overshoots, §2.2), gathers the
// leaf page IDs in the range from the leaf-parent jump-pointer chain,
// and keeps PrefetchWindow leaf pages in flight ahead of consumption.
func (t *Tree) RangeScan(startKey, endKey idx.Key, fn func(idx.Key, idx.TupleID) bool) (int, error) {
	t.ops.Scans.Add(1)
	root, height := t.rootHeight()
	if root == 0 || startKey > endKey {
		return 0, nil
	}
	startLeaf, err := t.leafFor(root, height, startKey, true)
	if err != nil {
		return 0, err
	}

	var pids []uint32 // leaf pages to prefetch, in scan order
	if t.jpa {
		endLeaf, err := t.leafFor(root, height, endKey, true)
		if err != nil {
			return 0, err
		}
		pids, err = t.leafPagesBetween(root, height, startKey, startLeaf, endLeaf)
		if err != nil {
			return 0, err
		}
	}

	count := 0
	pfNext := 0  // next index in pids to prefetch
	pageIdx := 0 // index of the current leaf within pids
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
		t.touchHeader(pg)
		n := pCount(pg.Data)
		i := 0
		if first {
			// Position on the first entry >= startKey.
			s, _ := t.searchPage(pg, startKey, true)
			i = s + 1
			first = false
		}
		for ; i < n; i++ {
			t.mm.Access(pg.Addr+uint64(t.keyOff(i)), idx.KeySize)
			k := t.key(pg.Data, i)
			if k > endKey {
				t.pool.Unpin(pg, false)
				return count, nil
			}
			if k < startKey {
				continue
			}
			t.mm.Access(pg.Addr+uint64(t.ptrOff(i)), idx.TupleIDSize)
			t.mm.Busy(memsim.CostEntryVisit)
			tid := t.ptr(pg.Data, i)
			count++
			if fn != nil && !fn(k, tid) {
				t.pool.Unpin(pg, false)
				return count, nil
			}
		}
		next := pNext(pg.Data)
		t.pool.Unpin(pg, false)
		pid = next
		pageIdx++
	}
	return count, nil
}

// leafFor descends from the given (root, height) snapshot to the leaf
// page that would contain k (charging normal search traffic). Forward
// scans and lookups descend with strictly-less comparisons (lt) so they
// never start past duplicates equal to a separator; reverse scans
// descend with lt=false to the rightmost leaf that can hold a key <= k.
// On a latched pool each child is pinned (shared-latched) before the
// parent's latch is released, so the child pointer just read cannot be
// restructured out from under the descent; acquisitions run strictly
// top-down, consistent with writer crabbing, so blocking here cannot
// deadlock. Sequentially the parent is released before the child is
// pinned: the simulated I/O counts depend on that pool call order.
func (t *Tree) leafFor(root uint32, height int, k idx.Key, lt bool) (uint32, error) {
	pid := root
	var parent buffer.Page
	for lvl := height - 1; lvl > 0; lvl-- {
		pg, err := t.pool.Get(pid)
		if parent.Valid() {
			t.pool.Unpin(parent, false)
			parent = buffer.Page{}
		}
		if err != nil {
			return 0, err
		}
		t.touchHeader(pg)
		slot, _ := t.searchPage(pg, k, lt)
		if slot < 0 {
			slot = 0
		}
		pid = t.readPtr(pg, slot)
		if t.conc {
			parent = pg
		} else {
			t.pool.Unpin(pg, false)
		}
	}
	if parent.Valid() {
		t.pool.Unpin(parent, false)
	}
	return pid, nil
}

// leafPagesBetween walks the leaf-parent jump-pointer chain and returns
// the leaf page IDs from startLeaf through endLeaf inclusive.
func (t *Tree) leafPagesBetween(root uint32, height int, startKey idx.Key, startLeaf, endLeaf uint32) ([]uint32, error) {
	if height == 1 {
		return []uint32{root}, nil
	}
	// Find the leaf parent holding startLeaf.
	pid := root
	for lvl := height - 1; lvl > 1; lvl-- {
		pg, err := t.pool.Get(pid)
		if err != nil {
			return nil, err
		}
		slot, _ := t.searchPage(pg, startKey, true)
		if slot < 0 {
			slot = 0
		}
		child := t.readPtr(pg, slot)
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
		t.touchHeader(pg)
		n := pCount(pg.Data)
		for i := 0; i < n; i++ {
			child := t.ptr(pg.Data, i)
			if child == startLeaf {
				started = true
			}
			if started {
				pids = append(pids, child)
				if child == endLeaf {
					t.pool.Unpin(pg, false)
					return pids, nil
				}
			}
		}
		next := pJPNext(pg.Data)
		t.pool.Unpin(pg, false)
		pid = next
	}
	return pids, nil
}

// PageCount implements idx.Index: it walks every level via sibling
// links (no memory-model charges).
func (t *Tree) PageCount() int {
	root, height := t.rootHeight()
	if root == 0 {
		return 0
	}
	total := 0
	pid := root
	for lvl := height - 1; lvl >= 0; lvl-- {
		var childFirst uint32
		cur := pid
		for cur != 0 {
			pg, err := t.pool.Get(cur)
			if err != nil {
				return -1
			}
			total++
			if lvl > 0 && childFirst == 0 && pCount(pg.Data) > 0 {
				childFirst = t.ptr(pg.Data, 0)
			}
			next := pNext(pg.Data)
			t.pool.Unpin(pg, false)
			cur = next
		}
		pid = childFirst
	}
	return total
}

// SpaceStats implements idx.Index: the same level walk as PageCount,
// classifying pages and counting leaf entries.
func (t *Tree) SpaceStats() (idx.SpaceStats, error) {
	var st idx.SpaceStats
	root, height := t.rootHeight()
	if root == 0 {
		return st, nil
	}
	pid := root
	for lvl := height - 1; lvl >= 0; lvl-- {
		var childFirst uint32
		cur := pid
		for cur != 0 {
			pg, err := t.pool.Get(cur)
			if err != nil {
				return st, err
			}
			st.Pages++
			if lvl == 0 {
				st.LeafPages++
				st.Entries += pCount(pg.Data)
			} else {
				st.NodePages++
				if childFirst == 0 && pCount(pg.Data) > 0 {
					childFirst = t.ptr(pg.Data, 0)
				}
			}
			next := pNext(pg.Data)
			t.pool.Unpin(pg, false)
			cur = next
		}
		pid = childFirst
	}
	if st.LeafPages > 0 {
		st.Utilization = float64(st.Entries) / float64(st.LeafPages*t.cap)
	}
	return st, nil
}

// CheckInvariants implements idx.Index.
func (t *Tree) CheckInvariants() error {
	root, height := t.rootHeight()
	if root == 0 {
		return nil
	}
	var leaves []uint32
	if err := t.checkSubtree(root, height-1, nil, nil, &leaves); err != nil {
		return err
	}
	// The leaf chain must enumerate exactly the reachable leaves, in order.
	pid := t.firstLeaf.Load()
	i := 0
	var prevID uint32
	var lastKey idx.Key
	haveLast := false
	for pid != 0 {
		if i >= len(leaves) || leaves[i] != pid {
			return fmt.Errorf("bptree: leaf chain diverges from tree order at %d (chain page %d)", i, pid)
		}
		pg, err := t.pool.Get(pid)
		if err != nil {
			return err
		}
		if pPrev(pg.Data) != prevID {
			t.pool.Unpin(pg, false)
			return fmt.Errorf("bptree: page %d prev link = %d, want %d", pid, pPrev(pg.Data), prevID)
		}
		if pType(pg.Data) == pageInternal && pJPNext(pg.Data) != pNext(pg.Data) {
			t.pool.Unpin(pg, false)
			return fmt.Errorf("bptree: page %d jump-pointer link %d != sibling %d", pid, pJPNext(pg.Data), pNext(pg.Data))
		}
		n := pCount(pg.Data)
		for j := 0; j < n; j++ {
			k := t.key(pg.Data, j)
			if haveLast && k < lastKey {
				t.pool.Unpin(pg, false)
				return fmt.Errorf("bptree: keys regress across leaf chain at page %d slot %d", pid, j)
			}
			lastKey, haveLast = k, true
		}
		prevID = pid
		next := pNext(pg.Data)
		t.pool.Unpin(pg, false)
		pid = next
		i++
	}
	if i != len(leaves) {
		return fmt.Errorf("bptree: leaf chain has %d pages, tree has %d", i, len(leaves))
	}
	return nil
}

func (t *Tree) checkSubtree(pid uint32, lvl int, lo, hi *idx.Key, leaves *[]uint32) error {
	pg, err := t.pool.Get(pid)
	if err != nil {
		return err
	}
	d := pg.Data
	n := pCount(d)
	if n > t.cap {
		t.pool.Unpin(pg, false)
		return fmt.Errorf("bptree: page %d count %d exceeds capacity %d", pid, n, t.cap)
	}
	wantType := byte(pageLeaf)
	if lvl > 0 {
		wantType = pageInternal
	}
	if pType(d) != wantType {
		t.pool.Unpin(pg, false)
		return fmt.Errorf("bptree: page %d has type %d at level %d", pid, pType(d), lvl)
	}
	if lvl > 0 && n == 0 {
		t.pool.Unpin(pg, false)
		return fmt.Errorf("bptree: internal page %d is empty", pid)
	}
	for j := 0; j < n; j++ {
		k := t.key(d, j)
		if j > 0 && k < t.key(d, j-1) {
			t.pool.Unpin(pg, false)
			return fmt.Errorf("bptree: page %d keys unsorted at %d", pid, j)
		}
		if lo != nil && k < *lo {
			t.pool.Unpin(pg, false)
			return fmt.Errorf("bptree: page %d key %d below bound %d", pid, k, *lo)
		}
		// Non-strict: duplicate keys may equal the next separator.
		if hi != nil && k > *hi {
			t.pool.Unpin(pg, false)
			return fmt.Errorf("bptree: page %d key %d above bound %d", pid, k, *hi)
		}
	}
	if err := t.checkMicro(pid, d); err != nil {
		t.pool.Unpin(pg, false)
		return err
	}
	if lvl == 0 {
		*leaves = append(*leaves, pid)
		t.pool.Unpin(pg, false)
		return nil
	}
	type childRef struct {
		pid    uint32
		lo, hi *idx.Key
	}
	children := make([]childRef, n)
	for j := 0; j < n; j++ {
		sep := t.key(d, j)
		lob := &sep
		if j == 0 {
			lob = lo // leftmost child inherits the parent's lower bound
		}
		var hib *idx.Key
		if j+1 < n {
			next := t.key(d, j+1)
			hib = &next
		} else {
			hib = hi
		}
		children[j] = childRef{t.ptr(d, j), lob, hib}
	}
	t.pool.Unpin(pg, false)
	for _, c := range children {
		if c.pid == 0 {
			return fmt.Errorf("bptree: page %d has nil child", pid)
		}
		if err := t.checkSubtree(c.pid, lvl-1, c.lo, c.hi, leaves); err != nil {
			return err
		}
	}
	return nil
}

var _ idx.Index = (*Tree)(nil)
