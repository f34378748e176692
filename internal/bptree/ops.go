package bptree

import (
	"repro/internal/buffer"
	"repro/internal/idx"
)

// Bulkload implements idx.Index. Pages are packed left to right to the
// fill factor (the last page of a level takes the remainder); sibling
// links and — when JPA is enabled — jump-pointer chains are threaded at
// every level, matching the DB2 implementation of §4.3.3; the micro
// layout's micro index is filled page by page. Bulkload does not charge
// the memory model: the paper clears all caches after loading and
// before measuring.
func (t *Tree) Bulkload(entries []idx.Entry, fill float64) error {
	if err := idx.CheckFill(fill); err != nil {
		return err
	}
	if err := idx.ValidateSorted(entries); err != nil {
		return err
	}
	if err := t.freeAll(); err != nil {
		return err
	}
	per := int(fill * float64(t.cap))
	if per < 1 {
		per = 1
	}
	if per > t.cap {
		per = t.cap
	}

	// Leaf level.
	type ref struct {
		min idx.Key
		pid uint32
	}
	var level []ref
	var prev buffer.Page
	if len(entries) == 0 {
		pg, err := t.pool.NewPage()
		if err != nil {
			return err
		}
		setType(pg.Data, pageLeaf)
		t.pool.Unpin(pg, true)
		level = append(level, ref{0, pg.ID})
	}
	for i := 0; i < len(entries); i += per {
		j := i + per
		if j > len(entries) {
			j = len(entries)
		}
		pg, err := t.pool.NewPage()
		if err != nil {
			return err
		}
		d := pg.Data
		setType(d, pageLeaf)
		setCount(d, j-i)
		for n, e := range entries[i:j] {
			t.setKey(d, n, e.Key)
			t.setPtr(d, n, e.TID)
		}
		t.fillMicro(d, 0)
		if prev.Valid() {
			setNext(prev.Data, pg.ID)
			setPrev(d, prev.ID)
			t.pool.Unpin(prev, true)
		}
		prev = pg
		level = append(level, ref{entries[i].Key, pg.ID})
	}
	if prev.Valid() {
		t.pool.Unpin(prev, true)
	}
	t.firstLeaf.Store(level[0].pid)
	height := 1

	// Internal levels.
	for len(level) > 1 {
		var up []ref
		prev = buffer.Page{}
		for i := 0; i < len(level); i += per {
			j := i + per
			if j > len(level) {
				j = len(level)
			}
			// Avoid a singleton top page when the remainder is 1 and
			// this is the would-be root level.
			pg, err := t.pool.NewPage()
			if err != nil {
				return err
			}
			d := pg.Data
			setType(d, pageInternal)
			setLevel(d, byte(height))
			setCount(d, j-i)
			for n, r := range level[i:j] {
				t.setKey(d, n, r.min)
				t.setPtr(d, n, r.pid)
			}
			t.fillMicro(d, 0)
			if prev.Valid() {
				setNext(prev.Data, pg.ID)
				setPrev(d, prev.ID)
				setJPNext(prev.Data, pg.ID)
				t.pool.Unpin(prev, true)
			}
			prev = pg
			up = append(up, ref{level[i].min, pg.ID})
		}
		if prev.Valid() {
			t.pool.Unpin(prev, true)
		}
		level = up
		height++
	}
	t.meta.Store(level[0].pid, 0, height)
	return nil
}

// freeAll releases every page of the current tree back to the pool.
func (t *Tree) freeAll() error {
	root, height := t.rootHeight()
	if root == 0 {
		return nil
	}
	pid := root
	for lvl := height - 1; lvl >= 0; lvl-- {
		// Remember the leftmost child before freeing this level.
		var childFirst uint32
		cur := pid
		for cur != 0 {
			pg, err := t.pool.Get(cur)
			if err != nil {
				return err
			}
			next := pNext(pg.Data)
			if lvl > 0 && childFirst == 0 && pCount(pg.Data) > 0 {
				childFirst = t.ptr(pg.Data, 0)
			}
			t.pool.Unpin(pg, false)
			if err := t.pool.FreePage(cur); err != nil {
				return err
			}
			cur = next
		}
		pid = childFirst
	}
	t.meta.Store(0, 0, 0)
	t.firstLeaf.Store(0)
	return nil
}

// Search implements idx.Index. The descent uses strictly-less
// comparisons and then walks forward across the (possibly page-
// spanning) run of duplicates, so an exact match is found even when
// deletions have hollowed out later duplicates (separators are only
// lower bounds).
func (t *Tree) Search(k idx.Key) (idx.TupleID, bool, error) {
	t.ops.Searches.Add(1)
	if tid, found, handled := t.searchOpt(k); handled {
		return tid, found, nil
	}
	pg, slot, found, err := t.findFirst(k, false)
	if err != nil || !found {
		return 0, false, err
	}
	tid := t.readPtr(pg, slot)
	t.pool.Unpin(pg, false)
	return tid, true, nil
}

// findFirst locates the first entry with key == k, returning its pinned
// page and slot (the caller unpins), or found=false. With excl the leaf
// pages are pinned exclusively (concurrent Delete mutates in place);
// the walk holds at most one leaf latch at a time, moving rightward.
func (t *Tree) findFirst(k idx.Key, excl bool) (buffer.Page, int, bool, error) {
	root, height := t.rootHeight()
	if root == 0 {
		return buffer.Page{}, 0, false, nil
	}
	pid, err := t.leafFor(root, height, k, true)
	if err != nil {
		return buffer.Page{}, 0, false, err
	}
	for pid != 0 {
		var pg buffer.Page
		var err error
		if excl {
			pg, err = t.pool.GetX(pid)
		} else {
			pg, err = t.pool.Get(pid)
		}
		if err != nil {
			return buffer.Page{}, 0, false, err
		}
		t.touchHeader(pg)
		slot, _ := t.searchPage(pg, k, true)
		slot++
		n := pCount(pg.Data)
		if slot < n {
			t.mm.Access(pg.Addr+uint64(t.keyOff(slot)), idx.KeySize)
			if t.key(pg.Data, slot) == k {
				return pg, slot, true, nil
			}
			t.pool.Unpin(pg, false)
			return buffer.Page{}, 0, false, nil
		}
		// Every entry in this page is < k (or the page is empty):
		// the run may start in the next page.
		next := pNext(pg.Data)
		t.pool.Unpin(pg, false)
		pid = next
	}
	return buffer.Page{}, 0, false, nil
}

// Insert implements idx.Index. In concurrent mode the insert descends
// with exclusive latch crabbing (insertConc); the sequential path below
// is unchanged.
func (t *Tree) Insert(k idx.Key, tid idx.TupleID) error {
	t.ops.Inserts.Add(1)
	if t.conc {
		return t.insertConc(k, tid)
	}
	root, height := t.rootHeight()
	if root == 0 {
		pg, err := t.pool.NewPage()
		if err != nil {
			return err
		}
		setType(pg.Data, pageLeaf)
		t.pool.Unpin(pg, true)
		t.firstLeaf.Store(pg.ID)
		t.meta.Store(pg.ID, 0, 1)
		root, height = pg.ID, 1
	}
	split, sepKey, newPID, err := t.insertInto(root, height-1, k, tid)
	if err != nil {
		return err
	}
	if !split {
		return nil
	}
	// Grow a new root.
	old, err := t.pool.Get(root)
	if err != nil {
		return err
	}
	oldMin := t.key(old.Data, 0)
	t.pool.Unpin(old, false)
	rootPg, err := t.pool.NewPage()
	if err != nil {
		return err
	}
	d := rootPg.Data
	setType(d, pageInternal)
	setLevel(d, byte(height))
	setCount(d, 2)
	t.setKey(d, 0, oldMin)
	t.setPtr(d, 0, root)
	t.setKey(d, 1, sepKey)
	t.setPtr(d, 1, newPID)
	t.fillMicro(d, 0)
	t.pool.Unpin(rootPg, true)
	t.meta.Store(rootPg.ID, 0, height+1)
	return nil
}

// insertInto inserts (k, p) into the subtree rooted at pid (at the given
// level; p is a tuple ID at level 0 and a child page ID above). If the
// page splits, it returns the separator and new page for the caller to
// install.
func (t *Tree) insertInto(pid uint32, lvl int, k idx.Key, p uint32) (bool, idx.Key, uint32, error) {
	pg, err := t.pool.Get(pid)
	if err != nil {
		return false, 0, 0, err
	}
	t.touchHeader(pg)
	slot, _ := t.searchPage(pg, k, false)

	if lvl > 0 {
		cslot := slot
		dirty := false
		if cslot < 0 {
			// k is below every separator: descend leftmost, lowering
			// its separator so separators remain true lower bounds.
			cslot = 0
			t.lowerMinKey(pg, k)
			dirty = true
		}
		child := t.readPtr(pg, cslot)
		t.pool.Unpin(pg, dirty)
		childSplit, sepKey, newPID, err := t.insertInto(child, lvl-1, k, p)
		if err != nil || !childSplit {
			return false, 0, 0, err
		}
		// Re-fix the page and install the separator.
		k, p = sepKey, newPID
		pg, err = t.pool.Get(pid)
		if err != nil {
			return false, 0, 0, err
		}
		slot, _ = t.searchPage(pg, k, false)
	}

	if pCount(pg.Data) < t.cap {
		err := t.insertAt(pg, slot+1, k, p)
		t.pool.Unpin(pg, true)
		return false, 0, 0, err
	}

	sep, newPID, err := t.splitPage(pg)
	if err != nil {
		t.pool.Unpin(pg, true)
		return false, 0, 0, err
	}
	if k >= sep {
		np, err2 := t.pool.Get(newPID)
		if err2 != nil {
			t.pool.Unpin(pg, true)
			return false, 0, 0, err2
		}
		s, _ := t.searchPage(np, k, false)
		err2 = t.insertAt(np, s+1, k, p)
		t.pool.Unpin(np, true)
		if err2 != nil {
			t.pool.Unpin(pg, true)
			return false, 0, 0, err2
		}
	} else {
		s, _ := t.searchPage(pg, k, false)
		if err := t.insertAt(pg, s+1, k, p); err != nil {
			t.pool.Unpin(pg, true)
			return false, 0, 0, err
		}
	}
	t.pool.Unpin(pg, true)
	return true, sep, newPID, nil
}

// splitPage moves the upper half of pg to a new page, threading sibling
// and jump-pointer links, and returns the separator (the new page's
// minimum key). In concurrent mode the caller holds pg exclusively, the
// new page is born exclusive (it is unreachable until pg's latch
// drops), and the right sibling's prev fix happens under its exclusive
// latch while pg is still held — a left-to-right, same-level
// acquisition permitted by the global latch order, and the hold on pg
// keeps a racing split of the new page from publishing first.
func (t *Tree) splitPage(pg buffer.Page) (idx.Key, uint32, error) {
	d := pg.Data
	n := pCount(d)
	mid := n / 2
	np, err := t.newPageWrite()
	if err != nil {
		return 0, 0, err
	}
	nd := np.Data
	setType(nd, pType(d))
	setLevel(nd, pLevel(d))
	moved := n - mid
	copy(nd[t.keyOff(0):t.keyOff(moved)], d[t.keyOff(mid):t.keyOff(n)])
	copy(nd[t.ptrOff(0):t.ptrOff(moved)], d[t.ptrOff(mid):t.ptrOff(n)])
	t.mm.CopyBetween(np.Addr+uint64(t.keyOff(0)), pg.Addr+uint64(t.keyOff(mid)), moved*idx.KeySize)
	t.mm.CopyBetween(np.Addr+uint64(t.ptrOff(0)), pg.Addr+uint64(t.ptrOff(mid)), moved*idx.PageIDSize)
	setCount(nd, moved)
	setCount(d, mid)
	t.rebuildMicro(pg, 0)
	t.rebuildMicro(np, 0)

	// Sibling links.
	right := pNext(d)
	setNext(nd, right)
	setPrev(nd, pg.ID)
	setNext(d, np.ID)
	if right != 0 {
		rp, err := t.getWrite(right)
		if err != nil {
			t.pool.Unpin(np, true)
			return 0, 0, err
		}
		setPrev(rp.Data, np.ID)
		t.pool.Unpin(rp, true)
	}
	// Jump-pointer chain (kept on every internal level, like the DB2
	// implementation which links all levels).
	if pType(d) == pageInternal {
		setJPNext(nd, pJPNext(d))
		setJPNext(d, np.ID)
	}
	sep := t.key(nd, 0)
	newPID := np.ID
	t.pool.Unpin(np, true)
	return sep, newPID, nil
}

// Delete implements idx.Index: lazy deletion (§3.1.2) — the entry's
// array slot is closed up, but underflowed pages are never merged.
// Like Search, it removes the first entry of a duplicate run.
func (t *Tree) Delete(k idx.Key) (bool, error) {
	t.ops.Deletes.Add(1)
	// Concurrent mode pins the leaf exclusively; the descent itself
	// needs no write latches because lazy deletion never restructures.
	pg, slot, found, err := t.findFirst(k, t.conc)
	if err != nil || !found {
		return false, err
	}
	t.removeAt(pg, slot)
	t.pool.Unpin(pg, true)
	return true, nil
}
