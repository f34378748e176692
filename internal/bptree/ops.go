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
	if err := t.FreeAll(); err != nil {
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
	t.SetFirstLeaf(level[0].pid)
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
	t.SetRoot(level[0].pid, height)
	return nil
}

// Search implements idx.Index. The descent uses strictly-less
// comparisons and then walks forward across the (possibly page-
// spanning) run of duplicates, so an exact match is found even when
// deletions have hollowed out later duplicates (separators are only
// lower bounds). The walk is pagetree's; SeekLeaf is its in-page half.
func (t *Tree) Search(k idx.Key) (idx.TupleID, bool, error) {
	t.ops.Searches.Add(1)
	return t.Lookup(k)
}

// SeekLeaf implements pagetree.Layout: the page is one sorted array, so
// every page of the walk is binary searched.
func (t *Tree) SeekLeaf(pg buffer.Page, k idx.Key, _ bool) (int, idx.Key) {
	slot, _ := t.searchPage(pg, k, true)
	if slot++; slot >= pCount(pg.Data) {
		return -1, 0
	}
	t.mm.Access(pg.Addr+uint64(t.keyOff(slot)), idx.KeySize)
	return slot, t.key(pg.Data, slot)
}

// TupleAt implements pagetree.Layout.
func (t *Tree) TupleAt(pg buffer.Page, pos int) idx.TupleID { return t.readPtr(pg, pos) }

// Insert implements idx.Index.
func (t *Tree) Insert(k idx.Key, tid idx.TupleID) error {
	t.ops.Inserts.Add(1)
	return t.Tree.Insert(k, tid)
}

// ChildFor implements pagetree.Layout.
func (t *Tree) ChildFor(pg buffer.Page, k idx.Key, lt bool) (uint32, bool) {
	slot, _ := t.searchPage(pg, k, lt)
	below := slot < 0
	if below {
		slot = 0
	}
	return t.readPtr(pg, slot), below
}

// ChildForInsert implements pagetree.Layout.
func (t *Tree) ChildForInsert(pg buffer.Page, k idx.Key) (uint32, bool) {
	slot, _ := t.searchPage(pg, k, false)
	lowered := slot < 0
	if lowered {
		// k is below every separator: descend leftmost, lowering its
		// separator so separators remain true lower bounds.
		slot = 0
		t.lowerMinKey(pg, k)
	}
	return t.readPtr(pg, slot), lowered
}

// Safe implements pagetree.Layout: a page with a free slot absorbs one
// more entry without splitting.
func (t *Tree) Safe(d []byte) bool { return pCount(d) < t.cap }

// InsertOnePage implements pagetree.Layout.
func (t *Tree) InsertOnePage(pg buffer.Page, k idx.Key, p uint32) (bool, error) {
	slot, _ := t.searchPage(pg, k, false)
	if !t.Safe(pg.Data) {
		return false, nil
	}
	if err := t.insertAt(pg, slot+1, k, p); err != nil {
		return false, err
	}
	return true, nil
}

// InitLeafRoot implements pagetree.Layout.
func (t *Tree) InitLeafRoot(d []byte) error {
	setType(d, pageLeaf)
	return nil
}

// InitRoot implements pagetree.Layout.
func (t *Tree) InitRoot(d []byte, level int, leftMin idx.Key, left uint32, sep idx.Key, right uint32) error {
	setType(d, pageInternal)
	setLevel(d, byte(level))
	setCount(d, 2)
	t.setKey(d, 0, leftMin)
	t.setPtr(d, 0, left)
	t.setKey(d, 1, sep)
	t.setPtr(d, 1, right)
	t.fillMicro(d, 0)
	return nil
}

// MinKey implements pagetree.Layout.
func (t *Tree) MinKey(d []byte) idx.Key { return t.key(d, 0) }

// Next implements pagetree.Layout.
func (t *Tree) Next(d []byte) uint32 { return pNext(d) }

// FirstChild implements pagetree.Layout.
func (t *Tree) FirstChild(d []byte) uint32 {
	if pCount(d) == 0 {
		return 0
	}
	return t.ptr(d, 0)
}

// SplitPage implements pagetree.Layout: it moves the upper half of pg
// to a new page, threading sibling and jump-pointer links, and returns
// the separator (the new page's minimum key). In concurrent mode the caller holds pg exclusively, the
// new page is born exclusive (it is unreachable until pg's latch
// drops), and the right sibling's prev fix happens under its exclusive
// latch while pg is still held — a left-to-right, same-level
// acquisition permitted by the global latch order, and the hold on pg
// keeps a racing split of the new page from publishing first.
func (t *Tree) SplitPage(pg buffer.Page) (idx.Key, uint32, error) {
	d := pg.Data
	n := pCount(d)
	mid := n / 2
	np, err := t.NewPageWrite()
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
		rp, err := t.GetWrite(right)
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
	// needs no write latches — none at all when it runs latch-free —
	// because lazy deletion never restructures.
	pg, pos, err := t.Locate(k, t.Conc())
	if pos < 0 {
		return false, err
	}
	t.removeAt(pg, pos)
	t.pool.Unpin(pg, true)
	return true, nil
}
