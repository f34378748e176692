package core

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/idx"
)

// Bulkload implements idx.Index (uncharged, like all bulkloads here).
// Leaf pages spread their entries across all in-page leaf nodes so that
// insertions are likely to find empty slots; nonleaf pages pack entries
// into one in-page leaf node after another (§3.1.2).
func (t *DiskFirst) Bulkload(entries []idx.Entry, fill float64) error {
	if err := idx.CheckFill(fill); err != nil {
		return err
	}
	if err := idx.ValidateSorted(entries); err != nil {
		return err
	}
	if err := t.FreeAll(); err != nil {
		return err
	}
	per := int(fill * float64(t.fanout))
	if per < 1 {
		per = 1
	}
	if per > t.fanout {
		per = t.fanout
	}

	type ref struct {
		min idx.Key
		pid uint32
	}
	makeLevel := func(prs []idx.Entry, lvl int, spread bool) ([]ref, error) {
		var out []ref
		var prev buffer.Page
		for i := 0; i < len(prs) || (len(prs) == 0 && i == 0); i += per {
			j := i + per
			if j > len(prs) {
				j = len(prs)
			}
			pg, err := t.pool.NewPage()
			if err != nil {
				return nil, err
			}
			typ := byte(pageLeaf)
			if lvl > 0 {
				typ = dfPageNonleaf
			}
			dfSetType(pg.Data, typ)
			dfSetLevel(pg.Data, byte(lvl))
			if err := t.buildInPage(pg.Data, prs[i:j], spread); err != nil {
				t.pool.Unpin(pg, true)
				return nil, err
			}
			if prev.Valid() {
				dfSetNextPage(prev.Data, pg.ID)
				dfSetJPNext(prev.Data, pg.ID)
				dfSetPrevPage(pg.Data, prev.ID)
				t.pool.Unpin(prev, true)
			}
			prev = pg
			var mn idx.Key
			if j > i {
				mn = prs[i].Key
			}
			out = append(out, ref{mn, pg.ID})
			if len(prs) == 0 {
				break
			}
		}
		if prev.Valid() {
			t.pool.Unpin(prev, true)
		}
		return out, nil
	}

	level, err := makeLevel(entries, 0, true)
	if err != nil {
		return err
	}
	t.SetFirstLeaf(level[0].pid)
	height := 1
	var prs []idx.Entry
	for len(level) > 1 {
		prs = prs[:0]
		for _, r := range level {
			prs = append(prs, idx.Entry{Key: r.min, TID: r.pid})
		}
		if level, err = makeLevel(prs, height, false); err != nil {
			return err
		}
		height++
	}
	t.SetRoot(level[0].pid, height)
	return nil
}

// Search implements idx.Index: two-granularity descent (§3.1.2). Point
// lookups descend with strictly-less comparisons and walk forward over
// the duplicate run (which may span in-page nodes and pages), so exact
// matches survive deletions among duplicates. The page walk is
// pagetree's; SeekLeaf is its in-page half.
func (t *DiskFirst) Search(k idx.Key) (idx.TupleID, bool, error) {
	t.ops.Searches.Add(1)
	return t.Lookup(k)
}

// SeekLeaf implements pagetree.Layout. A position is an in-page leaf
// node and a slot, packed as off*capL + slot. With seek the in-page tree
// is descended to the node for k; otherwise the walk starts at the
// page's first node, and an empty page (lazy deletion leaves them) is
// not walked at all. The node chain is followed at most pageLines hops:
// on a torn snapshot it could cycle, which no bounds check would catch.
func (t *DiskFirst) SeekLeaf(pg buffer.Page, k idx.Key, seek bool) (int, idx.Key) {
	d := pg.Data
	if dfEntries(d) == 0 {
		return -1, 0
	}
	off := dfFirstLeaf(d)
	if seek {
		off = t.descendInPage(pg, k, true, nil)
	}
	for hops := 0; off != 0 && hops < t.pageLines; hops++ {
		t.visitLeaf(pg, off)
		slot, _ := t.search(pg, off, k, true)
		if slot = t.nextOccupied(d, off, slot+1); slot >= 0 {
			t.mm.Access(pg.Addr+uint64(t.keyPos(off, slot)), 4)
			return off*t.capL + slot, t.key(d, off, slot)
		}
		off = t.lNext(d, off)
	}
	return -1, 0
}

// TupleAt implements pagetree.Layout.
func (t *DiskFirst) TupleAt(pg buffer.Page, pos int) idx.TupleID {
	off, slot := pos/t.capL, pos%t.capL
	t.mm.Access(pg.Addr+uint64(t.ptrPos(off, slot)), 4)
	return t.ptrAt(pg.Data, off, slot)
}

// Insert implements idx.Index.
func (t *DiskFirst) Insert(k idx.Key, tid idx.TupleID) error {
	t.ops.Inserts.Add(1)
	if t.gapped && k == gapSentinel {
		return fmt.Errorf("core: key %#x is reserved as the gap sentinel under GappedLeaves", uint32(k))
	}
	return t.Tree.Insert(k, tid)
}

// InitLeafRoot implements pagetree.Layout.
func (t *DiskFirst) InitLeafRoot(d []byte) error {
	dfSetType(d, pageLeaf)
	return t.buildInPage(d, nil, true)
}

// InitRoot implements pagetree.Layout.
func (t *DiskFirst) InitRoot(d []byte, level int, leftMin idx.Key, left uint32, sep idx.Key, right uint32) error {
	dfSetType(d, dfPageNonleaf)
	dfSetLevel(d, byte(level))
	return t.buildInPage(d, []idx.Entry{{Key: leftMin, TID: left}, {Key: sep, TID: right}}, false)
}

// MinKey implements pagetree.Layout: the first entry key of a page
// (its min separator).
func (t *DiskFirst) MinKey(d []byte) idx.Key {
	for off := dfFirstLeaf(d); off != 0; off = t.lNext(d, off) {
		if i := t.nextOccupied(d, off, 0); i >= 0 {
			return t.key(d, off, i)
		}
	}
	return 0
}

// Next implements pagetree.Layout.
func (t *DiskFirst) Next(d []byte) uint32 { return dfNextPage(d) }

// FirstChild implements pagetree.Layout.
func (t *DiskFirst) FirstChild(d []byte) uint32 {
	for off := dfFirstLeaf(d); off != 0; off = t.lNext(d, off) {
		if t.count(d, off) > 0 {
			return t.ptrAt(d, off, 0)
		}
	}
	return 0
}

// Safe implements pagetree.Layout: the safe-node rule of the crabbing
// descent and the reorganize-or-split rule of §3.1.2 are one
// predicate. A page with fewer than fanout-leafNodes entries (more
// than one empty slot per in-page leaf node) can always absorb one
// more entry, reorganizing its in-page tree if needed, and therefore
// cannot split.
func (t *DiskFirst) Safe(d []byte) bool {
	if t.gappedPage(d) {
		// Gapped leaf nodes refuse direct inserts at the two-thirds
		// split threshold, so the dense bound overstates what this page
		// can absorb: a reorganize spreads the entries evenly over the
		// canonical leaf nodes, and the follow-up insert is guaranteed
		// only while every rebuilt node stays below that threshold.
		return dfEntries(d) < t.leafNodes*(t.splitAt(d)-1)
	}
	return dfEntries(d) < t.fanout-t.leafNodes
}

// InsertOnePage implements pagetree.Layout: direct in-page insert,
// else reorganize-and-insert when the page is safe. ok=false means the
// page must split.
func (t *DiskFirst) InsertOnePage(pg buffer.Page, k idx.Key, p uint32) (bool, error) {
	if t.inPageInsert(pg, k, p) {
		return true, nil
	}
	if !t.Safe(pg.Data) {
		return false, nil
	}
	if err := t.reorganizePage(pg); err != nil {
		return false, err
	}
	if !t.inPageInsert(pg, k, p) {
		return false, fmt.Errorf("core: insert failed after reorganizing page %d (%d entries)", pg.ID, dfEntries(pg.Data))
	}
	return true, nil
}

// ChildForInsert implements pagetree.Layout: it descends a nonleaf page
// for an insertion, lowering the page's minimum separator when k falls
// below it (so page-level separators remain true lower bounds), and
// returns the child page ID.
func (t *DiskFirst) ChildForInsert(pg buffer.Page, k idx.Key) (uint32, bool) {
	d := pg.Data
	lowered := false
	var path inPath
	leafOff := t.descendInPage(pg, k, false, &path)
	t.visitLeaf(pg, leafOff)
	slot, _ := t.search(pg, leafOff, k, false)
	if slot < 0 {
		slot = 0
		if t.count(d, leafOff) > 0 && t.key(d, leafOff, 0) > k {
			t.setKey(d, leafOff, 0, k)
			t.mm.Access(pg.Addr+uint64(t.keyPos(leafOff, 0)), 4)
			lowered = true
			for i, noff := range path.offs {
				if path.slots[i] == 0 && t.count(d, noff) > 0 && t.nonleaf.key(d, noff, 0) > k {
					t.nonleaf.setKey(d, noff, 0, k)
				}
			}
		}
	}
	t.mm.Access(pg.Addr+uint64(t.ptrPos(leafOff, slot)), 4)
	return t.ptrAt(d, leafOff, slot), lowered
}

// reorganizePage rebuilds the page's in-page tree from its entries
// (spreading them), charging a whole-page data movement. A rebuild
// failure is a structural error (the entry count is page data, which
// corruption can inflate past what buildInPage accepts), so it is
// reported rather than panicking.
func (t *DiskFirst) reorganizePage(pg buffer.Page) error {
	entries := t.collectEntries(pg.Data)
	used := dfNextFree(pg.Data) * lineSize
	spread := dfType(pg.Data) == pageLeaf
	// Reorganization reads every entry once and writes it to its new
	// slot in the same (cache-resident-by-then) page.
	t.mm.Copy(pg.Addr+lineSize, used-lineSize)
	if err := t.buildInPage(pg.Data, entries, spread); err != nil {
		return fmt.Errorf("core: reorganize of page %d failed: %w", pg.ID, err)
	}
	return nil
}

// SplitPage implements pagetree.Layout: it moves the upper half of the
// page's entries to a new page, rebuilding both in-page trees (§3.1.2),
// and returns the separator and new page ID.
func (t *DiskFirst) SplitPage(pg buffer.Page) (idx.Key, uint32, error) {
	entries := t.collectEntries(pg.Data)
	mid := len(entries) / 2
	np, err := t.NewPageWrite()
	if err != nil {
		return 0, 0, err
	}
	dfSetType(np.Data, dfType(pg.Data))
	dfSetLevel(np.Data, dfLevel(pg.Data))
	// Leaf pages spread so subsequent inserts find slots; nonleaf pages
	// pack (§3.1.2).
	spread := dfType(pg.Data) == pageLeaf

	// Charge: copy the moved half of the in-page leaf nodes to the new
	// page and rebuild both pages' (much smaller) nonleaf structure —
	// §3.1.2's "copying half of the in-page leaf nodes to a new page
	// and then rebuilding the two in-page trees".
	t.mm.CopyBetween(np.Addr+lineSize, pg.Addr+lineSize, (len(entries)-mid)*8)
	nonleafBytes := (t.leafNodes/t.capN + 1) * t.w * lineSize
	t.mm.Copy(pg.Addr+lineSize, nonleafBytes)
	t.mm.Copy(np.Addr+lineSize, nonleafBytes)

	right := dfNextPage(pg.Data)
	if err := t.buildInPage(np.Data, entries[mid:], spread); err != nil {
		t.pool.Unpin(np, true)
		return 0, 0, err
	}
	if err := t.buildInPage(pg.Data, entries[:mid], spread); err != nil {
		t.pool.Unpin(np, true)
		return 0, 0, err
	}
	// Thread page-level sibling and jump-pointer links.
	dfSetNextPage(np.Data, right)
	dfSetJPNext(np.Data, right)
	dfSetPrevPage(np.Data, pg.ID)
	dfSetNextPage(pg.Data, np.ID)
	dfSetJPNext(pg.Data, np.ID)
	if right != 0 {
		// Concurrent mode latches the right sibling exclusively while
		// still holding pg: a same-level, left-to-right acquisition
		// permitted by the global latch order, and holding pg keeps a
		// racing split of the new page from publishing first.
		rp, err := t.GetWrite(right)
		if err != nil {
			t.pool.Unpin(np, true)
			return 0, 0, err
		}
		dfSetPrevPage(rp.Data, np.ID)
		t.pool.Unpin(rp, true)
	}
	sep := entries[mid].Key
	newPID := np.ID
	t.pool.Unpin(np, true)
	return sep, newPID, nil
}

// Delete implements idx.Index (lazy); removes the first entry of a
// duplicate run.
func (t *DiskFirst) Delete(k idx.Key) (bool, error) {
	t.ops.Deletes.Add(1)
	// Concurrent mode pins the leaf exclusively; the descent itself
	// needs no write latches — none at all when it runs latch-free —
	// because lazy deletion never restructures.
	pg, pos, err := t.Locate(k, t.Conc())
	if pos < 0 {
		return false, err
	}
	t.remove(pg, pos/t.capL, pos%t.capL)
	dfSetEntries(pg.Data, dfEntries(pg.Data)-1)
	t.pool.Unpin(pg, true)
	return true, nil
}
