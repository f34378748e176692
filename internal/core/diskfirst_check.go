package core

import (
	"fmt"

	"repro/internal/idx"
)

// CheckInvariants implements idx.Index. It validates, for every page:
// the in-page tree (sorted nodes, capacity bounds, level consistency,
// leaf-chain completeness and order, disjoint node line ranges, intact
// free chains, correct entry counts), and at the page level: separator
// bounds, sibling/jump-pointer chains, and leaf reachability.
func (t *DiskFirst) CheckInvariants() error {
	root, height := t.RootHeight()
	if root == 0 {
		return nil
	}
	var leaves []uint32
	if err := t.checkPageSubtree(root, height-1, nil, nil, &leaves); err != nil {
		return err
	}
	// Leaf page chain.
	pid := t.FirstLeaf()
	i := 0
	var prevID uint32
	var last idx.Key
	have := false
	for pid != 0 {
		if i >= len(leaves) || leaves[i] != pid {
			return fmt.Errorf("diskfirst: leaf page chain diverges at %d (page %d)", i, pid)
		}
		pg, err := t.pool.Get(pid)
		if err != nil {
			return err
		}
		if dfPrevPage(pg.Data) != prevID {
			t.pool.Unpin(pg, false)
			return fmt.Errorf("diskfirst: page %d prev = %d, want %d", pid, dfPrevPage(pg.Data), prevID)
		}
		if dfJPNext(pg.Data) != dfNextPage(pg.Data) {
			t.pool.Unpin(pg, false)
			return fmt.Errorf("diskfirst: page %d jump-pointer link %d != sibling %d", pid, dfJPNext(pg.Data), dfNextPage(pg.Data))
		}
		for _, e := range t.collectEntries(pg.Data) {
			if have && e.Key < last {
				t.pool.Unpin(pg, false)
				return fmt.Errorf("diskfirst: keys regress across leaf chain at page %d", pid)
			}
			last, have = e.Key, true
		}
		prevID = pid
		next := dfNextPage(pg.Data)
		t.pool.Unpin(pg, false)
		pid = next
		i++
	}
	if i != len(leaves) {
		return fmt.Errorf("diskfirst: leaf chain has %d pages, tree has %d", i, len(leaves))
	}
	return nil
}

func (t *DiskFirst) checkPageSubtree(pid uint32, lvl int, lo, hi *idx.Key, leaves *[]uint32) error {
	pg, err := t.pool.Get(pid)
	if err != nil {
		return err
	}
	d := pg.Data
	wantType := byte(pageLeaf)
	if lvl > 0 {
		wantType = dfPageNonleaf
	}
	if dfType(d) != wantType {
		t.pool.Unpin(pg, false)
		return fmt.Errorf("diskfirst: page %d type %d at level %d", pid, dfType(d), lvl)
	}
	if err := t.checkInPage(d, pid, lo, hi); err != nil {
		t.pool.Unpin(pg, false)
		return err
	}
	if lvl == 0 {
		*leaves = append(*leaves, pid)
		t.pool.Unpin(pg, false)
		return nil
	}
	entries := t.collectEntries(d)
	t.pool.Unpin(pg, false)
	if len(entries) == 0 {
		return fmt.Errorf("diskfirst: empty nonleaf page %d", pid)
	}
	for j, e := range entries {
		lob := &entries[j].Key
		if j == 0 {
			lob = lo
		}
		var hib *idx.Key
		if j+1 < len(entries) {
			hib = &entries[j+1].Key
		} else {
			hib = hi
		}
		if e.TID == 0 {
			return fmt.Errorf("diskfirst: nil child in page %d", pid)
		}
		if err := t.checkPageSubtree(e.TID, lvl-1, lob, hib, leaves); err != nil {
			return err
		}
	}
	return nil
}

// checkInPage validates one page's in-page tree.
func (t *DiskFirst) checkInPage(d []byte, pid uint32, lo, hi *idx.Key) error {
	levels := dfInLevels(d)
	if levels < 1 {
		return fmt.Errorf("diskfirst: page %d has %d in-page levels", pid, levels)
	}
	nf := dfNextFree(d)
	if nf < 1 || nf > t.pageLines {
		return fmt.Errorf("diskfirst: page %d bump frontier %d out of range", pid, nf)
	}
	used := make([]byte, t.pageLines) // 0 free, 1 node, 2 free-chain

	markRange := func(off, width int, kind byte) error {
		if off < 1 || off+width > nf {
			return fmt.Errorf("diskfirst: page %d node at line %d width %d outside [1,%d)", pid, off, width, nf)
		}
		for l := off; l < off+width; l++ {
			if used[l] != 0 {
				return fmt.Errorf("diskfirst: page %d line %d claimed twice", pid, l)
			}
			used[l] = kind
		}
		return nil
	}

	// Walk the in-page tree, collecting leaves in order.
	var leafOrder []int
	var walk func(off, lvl int) error
	walk = func(off, lvl int) error {
		if lvl == 1 {
			if err := markRange(off, t.x, 1); err != nil {
				return err
			}
			cnt := t.count(d, off)
			if cnt > t.capL {
				return fmt.Errorf("diskfirst: page %d leaf node %d overflows (%d > %d)", pid, off, cnt, t.capL)
			}
			if t.gappedPage(d) {
				// Gapped leaf: count is occupancy; live keys must be
				// sorted among themselves across the gaps.
				occ := 0
				var prev idx.Key
				for i := 0; i < t.capL; i++ {
					k := t.key(d, off, i)
					if k == gapSentinel {
						continue
					}
					if occ > 0 && k < prev {
						return fmt.Errorf("diskfirst: page %d gapped leaf node %d unsorted", pid, off)
					}
					occ++
					prev = k
					if lo != nil && k < *lo {
						return fmt.Errorf("diskfirst: page %d key %d below bound %d", pid, k, *lo)
					}
					if hi != nil && k > *hi {
						return fmt.Errorf("diskfirst: page %d key %d above bound %d", pid, k, *hi)
					}
				}
				if occ != cnt {
					return fmt.Errorf("diskfirst: page %d gapped leaf node %d occupancy %d != count %d", pid, off, occ, cnt)
				}
				leafOrder = append(leafOrder, off)
				return nil
			}
			for i := 0; i < cnt; i++ {
				k := t.key(d, off, i)
				if i > 0 && k < t.key(d, off, i-1) {
					return fmt.Errorf("diskfirst: page %d leaf node %d unsorted", pid, off)
				}
				if lo != nil && k < *lo {
					return fmt.Errorf("diskfirst: page %d key %d below bound %d", pid, k, *lo)
				}
				if hi != nil && k > *hi {
					return fmt.Errorf("diskfirst: page %d key %d above bound %d", pid, k, *hi)
				}
			}
			leafOrder = append(leafOrder, off)
			return nil
		}
		if err := markRange(off, t.w, 1); err != nil {
			return err
		}
		cnt := t.count(d, off)
		if cnt < 1 || cnt > t.capN {
			return fmt.Errorf("diskfirst: page %d nonleaf node %d count %d out of range", pid, off, cnt)
		}
		for i := 0; i < cnt; i++ {
			if i > 0 && t.nonleaf.key(d, off, i) < t.nonleaf.key(d, off, i-1) {
				return fmt.Errorf("diskfirst: page %d nonleaf node %d unsorted", pid, off)
			}
			if err := walk(t.nChild(d, off, i), lvl-1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(dfRoot(d), levels); err != nil {
		return err
	}

	// Leaf chain must equal in-order leaves.
	i := 0
	for off := dfFirstLeaf(d); off != 0; off = t.lNext(d, off) {
		if i >= len(leafOrder) || leafOrder[i] != off {
			return fmt.Errorf("diskfirst: page %d in-page leaf chain diverges at %d", pid, i)
		}
		i++
	}
	if i != len(leafOrder) {
		return fmt.Errorf("diskfirst: page %d leaf chain has %d nodes, tree has %d", pid, i, len(leafOrder))
	}
	// Keys must be nondecreasing along the chain.
	var last idx.Key
	have := false
	total := 0
	for _, off := range leafOrder {
		total += t.count(d, off)
		for j := t.nextOccupied(d, off, 0); j >= 0; j = t.nextOccupied(d, off, j+1) {
			k := t.key(d, off, j)
			if have && k < last {
				return fmt.Errorf("diskfirst: page %d keys regress across in-page chain", pid)
			}
			last, have = k, true
		}
	}
	if total != dfEntries(d) {
		return fmt.Errorf("diskfirst: page %d entryCount %d, leaves hold %d", pid, dfEntries(d), total)
	}
	if total > t.fanout {
		return fmt.Errorf("diskfirst: page %d holds %d entries, fan-out %d", pid, total, t.fanout)
	}

	// Free chains: disjoint from nodes and in range.
	for off := dfFreeLeaf(d); off != 0; off = int(le.Uint16(d[nodeBase(off):])) {
		if err := markRange(off, t.x, 2); err != nil {
			return err
		}
	}
	for off := dfFreeNon(d); off != 0; off = int(le.Uint16(d[nodeBase(off):])) {
		if err := markRange(off, t.w, 2); err != nil {
			return err
		}
	}
	return nil
}

var _ idx.Index = (*DiskFirst)(nil)
