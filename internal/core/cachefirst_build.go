package core

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/idx"
)

// nodeSpec is an in-memory description of a nonleaf node during
// bulkload, before placement assigns it a page and offset.
type nodeSpec struct {
	keys     []idx.Key
	children []int // indexes into the next-lower level's spec slice
	leafPtrs []ptr // leaf parents point at already-placed leaf nodes
	placed   ptr
}

// cfLevel is one level of nonleaf specs during bulkload.
type cfLevel struct {
	specs []nodeSpec
	mins  []idx.Key
}

// Bulkload implements idx.Index, following §3.2.2: leaf nodes are laid
// consecutively into leaf-only pages and linked; nonleaf nodes are
// placed aggressively — a parent's full in-page subtree plus
// bitmap-spread underflow children share its page; other children
// become top-level nodes of their own pages, except leaf parents, which
// go to overflow pages. The external jump-pointer array records leaf
// page IDs in order.
func (t *CacheFirst) Bulkload(entries []idx.Entry, fill float64) error {
	if err := idx.CheckFill(fill); err != nil {
		return err
	}
	if err := idx.ValidateSorted(entries); err != nil {
		return err
	}
	if err := t.freeAll(); err != nil {
		return err
	}
	perL := clampPer(int(fill*float64(t.capL)), t.capL)
	perN := clampPer(int(fill*float64(t.capN)), t.capN)

	// 1. Leaf nodes into leaf pages.
	type leafRef struct {
		min idx.Key
		at  ptr
	}
	var leaves []leafRef
	var pg buffer.Page
	var prevLeaf ptr
	flushPage := func() {
		if pg.Valid() {
			t.pool.Unpin(pg, true)
			pg = buffer.Page{}
		}
	}
	placeLeaf := func(es []idx.Entry) error {
		if !pg.Valid() || !t.hasSlot(pg.Data) {
			flushPage()
			var err error
			if pg, err = t.newPage(pageLeaf); err != nil {
				return err
			}
			t.jpaAppend(pg.ID)
		}
		off := t.allocSlot(pg.Data)
		d := pg.Data
		if t.gapped {
			// Interleave the node's free slots with its entries (entry 0
			// still lands on slot 0, so the min read below is unchanged).
			t.spread(d, off, es)
		} else {
			t.setCount(d, off, len(es))
			for i, e := range es {
				t.setKey(d, off, i, e.Key)
				t.setPtr(d, off, i, e.TID)
			}
		}
		at := ptr{pg.ID, off}
		if !prevLeaf.isNil() {
			if err := t.setLeafNext(prevLeaf, at, pg); err != nil {
				return err
			}
		} else {
			t.setFirstLeaf(at)
		}
		prevLeaf = at
		var mn idx.Key
		if len(es) > 0 {
			mn = es[0].Key
		}
		leaves = append(leaves, leafRef{mn, at})
		return nil
	}
	if len(entries) == 0 {
		if err := placeLeaf(nil); err != nil {
			return err
		}
	}
	for i := 0; i < len(entries); i += perL {
		j := i + perL
		if j > len(entries) {
			j = len(entries)
		}
		if err := placeLeaf(entries[i:j]); err != nil {
			return err
		}
	}
	flushPage()
	height := 1
	if len(leaves) == 1 {
		t.setRootHeight(leaves[0].at, height)
		return nil
	}

	// 2. Build the nonleaf shape in memory.
	var levels []cfLevel
	// Leaf parents.
	{
		var l cfLevel
		for i := 0; i < len(leaves); i += perN {
			j := i + perN
			if j > len(leaves) {
				j = len(leaves)
			}
			sp := nodeSpec{}
			for _, r := range leaves[i:j] {
				sp.keys = append(sp.keys, r.min)
				sp.leafPtrs = append(sp.leafPtrs, r.at)
			}
			l.specs = append(l.specs, sp)
			l.mins = append(l.mins, leaves[i].min)
		}
		levels = append(levels, l)
		height++
	}
	for len(levels[len(levels)-1].specs) > 1 {
		below := &levels[len(levels)-1]
		var l cfLevel
		for i := 0; i < len(below.specs); i += perN {
			j := i + perN
			if j > len(below.specs) {
				j = len(below.specs)
			}
			sp := nodeSpec{}
			for m := i; m < j; m++ {
				sp.keys = append(sp.keys, below.mins[m])
				sp.children = append(sp.children, m)
			}
			l.specs = append(l.specs, sp)
			l.mins = append(l.mins, below.mins[i])
		}
		levels = append(levels, l)
		height++
	}

	// 3. Aggressive top-down placement.
	fullLevels, underflow := t.placementShape(perN)
	if t.noUnderfill {
		underflow = 0
	}
	rootLvl := len(levels) - 1
	rootAt, err := t.placeSubtree(levels, rootLvl, 0, fullLevels, underflow, perN)
	if err != nil {
		return err
	}
	t.setRootHeight(rootAt, height)

	// 4. Write the placed nonleaf nodes' contents.
	for li := len(levels) - 1; li >= 0; li-- {
		for si := range levels[li].specs {
			sp := &levels[li].specs[si]
			pg, err := t.pool.Get(sp.placed.pid)
			if err != nil {
				return err
			}
			d := pg.Data
			off := sp.placed.off
			t.setCount(d, off, len(sp.keys))
			for i, k := range sp.keys {
				t.setKey(d, off, i, k)
				if sp.leafPtrs != nil {
					t.cSetChild(d, off, i, sp.leafPtrs[i])
				} else {
					t.cSetChild(d, off, i, levels[li-1].specs[sp.children[i]].placed)
				}
			}
			t.pool.Unpin(pg, true)
		}
	}

	// 5. Thread the leaf-parent sibling chain (used by leaf page
	// splits) and the leaf pages' back pointers (§3.2.2).
	lps := levels[0].specs
	for i := 0; i+1 < len(lps); i++ {
		pg, err := t.pool.Get(lps[i].placed.pid)
		if err != nil {
			return err
		}
		t.cSetNextLeaf(pg.Data, lps[i].placed.off, lps[i+1].placed)
		t.pool.Unpin(pg, true)
	}
	seen := make(map[uint32]bool)
	for i, r := range leaves {
		if seen[r.at.pid] {
			continue
		}
		seen[r.at.pid] = true
		pg, err := t.pool.Get(r.at.pid)
		if err != nil {
			return err
		}
		cfSetBack(pg.Data, lps[i/perN].placed)
		t.pool.Unpin(pg, true)
	}
	return nil
}

func clampPer(per, cap int) int {
	if per < 1 {
		return 1
	}
	if per > cap {
		return cap
	}
	return per
}

// placementShape computes how many levels of a full (fill-adjusted)
// subtree fit in a page, and the node-slot underflow left over —
// the §3.2.2 computation (e.g. 69-way nodes, 23 slots → one level,
// underflow 22).
func (t *CacheFirst) placementShape(perN int) (fullLevels, underflow int) {
	count, levelNodes := 0, 1
	for {
		if count+levelNodes > t.perPage {
			break
		}
		count += levelNodes
		fullLevels++
		levelNodes *= perN
	}
	if fullLevels == 0 {
		fullLevels = 1
		count = 1
	}
	return fullLevels, t.perPage - count
}

// placeSubtree assigns pages to the spec at (lvl, si) and, recursively,
// to its descendants, per the aggressive placement rules. The spec
// becomes the top-level node of a fresh node page.
func (t *CacheFirst) placeSubtree(levels []cfLevel, lvl, si, fullLevels, underflow, perN int) (ptr, error) {
	pg, err := t.newPage(cfPageNode)
	if err != nil {
		return nilPtr, err
	}
	defer t.pool.Unpin(pg, true)

	admitted := 0 // bitmap-admitted nodes so far in this page
	var place func(lvl, si, inPageLvl int) (ptr, error)
	place = func(lvl, si, inPageLvl int) (ptr, error) {
		sp := &levels[lvl].specs[si]
		off := t.allocSlot(pg.Data)
		if off == 0 {
			return nilPtr, fmt.Errorf("core: aggressive placement overflowed page %d", pg.ID)
		}
		at := ptr{pg.ID, off}
		sp.placed = at
		if inPageLvl == 0 {
			cfSetTop(pg.Data, off)
		}
		if sp.leafPtrs != nil {
			return at, nil // leaf parent: children are leaf nodes
		}
		n := len(sp.children)
		for ci, childIdx := range sp.children {
			child := childIdx
			childIsLeafParent := levels[lvl-1].specs[child].leafPtrs != nil
			inPage := false
			if inPageLvl+1 < fullLevels {
				inPage = true
			} else if inPageLvl+1 == fullLevels && underflow > 0 {
				// Spread `underflow` admissions evenly over this
				// node's children (the §3.2.2 bitmap).
				quota := underflow
				if quota > n {
					quota = n
				}
				if ((ci+1)*quota)/n > (ci*quota)/n && admitted < underflow {
					inPage = true
					admitted++
				}
			}
			if inPage {
				if _, err := place(lvl-1, child, inPageLvl+1); err != nil {
					return nilPtr, err
				}
			} else if childIsLeafParent {
				at, err := t.allocOverflowSlot(buffer.Page{})
				if err != nil {
					return nilPtr, err
				}
				levels[lvl-1].specs[child].placed = at
			} else {
				at, err := t.placeSubtree(levels, lvl-1, child, fullLevels, underflow, perN)
				if err != nil {
					return nilPtr, err
				}
				levels[lvl-1].specs[child].placed = at
			}
		}
		return at, nil
	}
	return place(lvl, si, 0)
}

// setLeafNext writes the sibling pointer of the leaf node at `from`,
// reusing curPg when it is already pinned.
func (t *CacheFirst) setLeafNext(from, to ptr, curPg buffer.Page) error {
	if curPg.Valid() && curPg.ID == from.pid {
		t.cSetNextLeaf(curPg.Data, from.off, to)
		return nil
	}
	pg, err := t.pool.Get(from.pid)
	if err != nil {
		return err
	}
	t.cSetNextLeaf(pg.Data, from.off, to)
	t.pool.Unpin(pg, true)
	return nil
}

// freeAll releases every page and resets in-memory state. Requires
// quiescence (no concurrent operations), like Bulkload itself.
func (t *CacheFirst) freeAll() error {
	t.pagesMu.Lock()
	defer t.pagesMu.Unlock()
	for pid := range t.pages {
		if err := t.pool.FreePage(pid); err != nil {
			return err
		}
		delete(t.pages, pid)
	}
	t.jpaMu.Lock()
	t.jpa.Reset()
	t.jpaMu.Unlock()
	t.setRootHeight(nilPtr, 0)
	t.setFirstLeaf(nilPtr)
	t.overflowCur = 0
	return nil
}
