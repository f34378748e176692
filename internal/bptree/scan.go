package bptree

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/memsim"
)

// RangeScan implements idx.Index: pagetree.Scan is the walk (end page
// first, jump-pointer prefetch window, sibling hops) and ScanLeaf the
// per-page part. The jump-pointer array is the page-level internal one
// of §2.2, the technique the paper added to DB2.
func (t *Tree) RangeScan(startKey, endKey idx.Key, fn func(idx.Key, idx.TupleID) bool) (int, error) {
	t.ops.Scans.Add(1)
	return t.Scan(startKey, endKey, false, fn)
}

// RangeScanReverse implements idx.Index: descending order along the
// leaf pages' prev links (the DB2 implementation of §4.3.3 keeps
// sibling links in both directions).
func (t *Tree) RangeScanReverse(startKey, endKey idx.Key, fn func(idx.Key, idx.TupleID) bool) (int, error) {
	t.ops.ReverseScans.Add(1)
	return t.Scan(startKey, endKey, true, fn)
}

// ScanLeaf implements pagetree.Layout.
func (t *Tree) ScanLeaf(pg buffer.Page, lo, hi idx.Key, reverse, seek bool, fn func(idx.Key, idx.TupleID) bool) (int, bool) {
	i, end, step := 0, pCount(pg.Data), 1
	if reverse {
		i, end, step = end-1, -1, -1
	}
	if seek && reverse {
		i, _ = t.searchPage(pg, hi, false) // the last entry <= hi
	} else if seek {
		s, _ := t.searchPage(pg, lo, true)
		i = s + 1 // the first entry >= lo
	}
	count := 0
	for ; i != end; i += step {
		t.mm.Access(pg.Addr+uint64(t.keyOff(i)), idx.KeySize)
		k := t.key(pg.Data, i)
		if k < lo || k > hi {
			if (k < lo) == reverse {
				return count, true // past the far bound
			}
			continue
		}
		t.mm.Access(pg.Addr+uint64(t.ptrOff(i)), idx.TupleIDSize)
		t.mm.Busy(memsim.CostEntryVisit)
		count++
		if fn != nil && !fn(k, t.ptr(pg.Data, i)) {
			return count, true
		}
	}
	return count, false
}

// JumpPointers implements pagetree.Layout: a leaf-parent page's pointer
// array is its chunk of the jump-pointer array.
func (t *Tree) JumpPointers(pg buffer.Page, first, last uint32, extra int, dst []uint32) ([]uint32, bool) {
	d := pg.Data
	for i, n := 0, pCount(d); i < n; i++ {
		child := t.ptr(d, i)
		if first != 0 && child != first {
			continue
		}
		first = 0
		dst = append(dst, child)
		if child == last {
			for j := i + 1; j < n && j <= i+extra; j++ {
				dst = append(dst, t.ptr(d, j))
			}
			return dst, true
		}
	}
	return dst, false
}

// Prev implements pagetree.Layout.
func (t *Tree) Prev(d []byte) uint32 { return pPrev(d) }

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
