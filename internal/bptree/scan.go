package bptree

import (
	"fmt"

	"repro/internal/idx"
	"repro/internal/memsim"
)

// RangeScan implements idx.Index. With JPA enabled it first locates the
// range's end page (so prefetching never overshoots, §2.2), gathers the
// leaf page IDs in the range from the leaf-parent jump-pointer chain,
// and keeps PrefetchWindow leaf pages in flight ahead of consumption.
func (t *Tree) RangeScan(startKey, endKey idx.Key, fn func(idx.Key, idx.TupleID) bool) (int, error) {
	t.ops.Scans.Add(1)
	root, height := t.RootHeight()
	if root == 0 || startKey > endKey {
		return 0, nil
	}
	startLeaf, err := t.LeafFor(root, height, startKey, true)
	if err != nil {
		return 0, err
	}

	var pids []uint32 // leaf pages to prefetch, in scan order
	if t.jpa {
		endLeaf, err := t.LeafFor(root, height, endKey, true)
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
		t.TouchHeader(pg)
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
		t.TouchHeader(pg)
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

// SpaceStats implements idx.Index: a level walk classifying pages and
// counting leaf entries.
func (t *Tree) SpaceStats() (idx.SpaceStats, error) {
	var st idx.SpaceStats
	err := t.Walk(func(lvl int, d []byte) {
		st.Pages++
		if lvl == 0 {
			st.LeafPages++
			st.Entries += pCount(d)
		} else {
			st.NodePages++
		}
	})
	if st.LeafPages > 0 {
		st.Utilization = float64(st.Entries) / float64(st.LeafPages*t.cap)
	}
	return st, err
}

// CheckInvariants implements idx.Index.
func (t *Tree) CheckInvariants() error {
	root, height := t.RootHeight()
	if root == 0 {
		return nil
	}
	var leaves []uint32
	if err := t.checkSubtree(root, height-1, nil, nil, &leaves); err != nil {
		return err
	}
	// The leaf chain must enumerate exactly the reachable leaves, in order.
	pid := t.FirstLeaf()
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
