package core

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/idx"
)

// buildInPage constructs a fresh in-page tree over entries (sorted).
// For leaf pages (spread=true) the entries are distributed evenly over
// the canonical number of in-page leaf nodes so later insertions find
// empty slots (§3.1.2); for nonleaf pages they are packed into one leaf
// node after another. It resets all space-management state of the page.
// Uncharged: callers charge reorganization/split costs explicitly.
func (t *DiskFirst) buildInPage(d []byte, entries []idx.Entry, spread bool) error {
	// Preserve page-level links and identity fields.
	typ, lvl := dfType(d), dfLevel(d)
	next, prev, jpn := dfNextPage(d), dfPrevPage(d), dfJPNext(d)
	for i := range d {
		d[i] = 0
	}
	dfSetType(d, typ)
	dfSetLevel(d, lvl)
	dfSetNextPage(d, next)
	dfSetPrevPage(d, prev)
	dfSetJPNext(d, jpn)
	dfSetNextFree(d, 1)

	n := len(entries)
	if n > t.fanout {
		return fmt.Errorf("core: %d entries exceed page fan-out %d", n, t.fanout)
	}
	// Decide the number of in-page leaf nodes. Never create more nodes
	// than entries: an empty node would need a separator duplicating
	// its predecessor's, and LE-descent would then dead-end in it.
	nLeaves := (n + t.capL - 1) / t.capL
	if spread && t.leafNodes > nLeaves {
		nLeaves = t.leafNodes
	}
	if nLeaves > n {
		nLeaves = n
	}
	if nLeaves < 1 {
		nLeaves = 1
	}

	// Allocate and fill leaf nodes, chaining them.
	leafOffs := make([]int, 0, nLeaves)
	mins := make([]idx.Key, 0, nLeaves)
	base, rem := n/nLeaves, n%nLeaves
	pos := 0
	for i := 0; i < nLeaves; i++ {
		cnt := base
		if i < rem {
			cnt++
		}
		off := t.allocNode(d, true)
		if off == 0 {
			return fmt.Errorf("core: page overflow placing in-page leaf %d/%d", i, nLeaves)
		}
		if t.gappedPage(d) {
			// Gapped layout: interleave the node's free slots with its
			// entries instead of packing them at the tail (entry 0 still
			// lands on slot 0, so the min read below is unchanged).
			t.spread(d, off, entries[pos:pos+cnt])
			pos += cnt
		} else {
			t.setCount(d, off, cnt)
			for j := 0; j < cnt; j++ {
				t.setKey(d, off, j, entries[pos].Key)
				t.setPtr(d, off, j, entries[pos].TID)
				pos++
			}
		}
		if len(leafOffs) > 0 {
			t.lSetNext(d, leafOffs[len(leafOffs)-1], off)
		}
		var mn idx.Key
		if cnt > 0 {
			mn = t.key(d, off, 0)
		} else if len(mins) > 0 {
			mn = mins[len(mins)-1]
		}
		leafOffs = append(leafOffs, off)
		mins = append(mins, mn)
	}
	dfSetFirstLeaf(d, leafOffs[0])

	// Build nonleaf levels bottom-up.
	levels := 1
	offs, keys := leafOffs, mins
	for len(offs) > 1 {
		var upOffs []int
		var upKeys []idx.Key
		for i := 0; i < len(offs); i += t.capN {
			j := i + t.capN
			if j > len(offs) {
				j = len(offs)
			}
			off := t.allocNode(d, false)
			if off == 0 {
				return fmt.Errorf("core: page overflow placing in-page nonleaf")
			}
			t.setCount(d, off, j-i)
			for m := i; m < j; m++ {
				t.nonleaf.setKey(d, off, m-i, keys[m])
				t.nSetChild(d, off, m-i, offs[m])
			}
			if len(upOffs) > 0 {
				t.nSetNext(d, upOffs[len(upOffs)-1], off)
			}
			upOffs = append(upOffs, off)
			upKeys = append(upKeys, keys[i])
		}
		offs, keys = upOffs, upKeys
		levels++
	}
	dfSetRoot(d, offs[0])
	dfSetInLevels(d, levels)
	dfSetEntries(d, n)
	return nil
}

// collectEntries gathers every entry in the page in key order by
// walking the in-page leaf chain (uncharged).
func (t *DiskFirst) collectEntries(d []byte) []idx.Entry {
	out := make([]idx.Entry, 0, dfEntries(d))
	for off := dfFirstLeaf(d); off != 0; off = t.lNext(d, off) {
		out = t.entries(out, d, off)
	}
	return out
}

// inPath records the in-page descent for an insertion.
type inPath struct {
	offs  []int // node offsets from the in-page root down to the leaf
	slots []int // child slot taken at each nonleaf level
}

// descendInPage walks the in-page tree to the leaf node for k,
// charging prefetch-style node visits. lt selects strictly-less
// descent (range scans).
func (t *DiskFirst) descendInPage(pg buffer.Page, k idx.Key, lt bool, path *inPath) int {
	d := pg.Data
	off := dfRoot(d)
	for lvl := dfInLevels(d); lvl > 1; lvl-- {
		t.visitNonleaf(pg, off)
		slot, _ := t.nonleaf.search(pg, off, k, lt)
		if slot < 0 {
			slot = 0
		}
		if path != nil {
			path.offs = append(path.offs, off)
			path.slots = append(path.slots, slot)
		}
		off = t.nChild(d, off, slot)
	}
	return off
}

// nonleafInsertAt installs (k, child) at slot pos of nonleaf node off.
func (t *DiskFirst) nonleafInsertAt(pg buffer.Page, off, pos int, k idx.Key, child int) {
	d := pg.Data
	cnt := t.count(d, off)
	if moved := cnt - pos; moved > 0 {
		copy(d[t.nonleaf.keyPos(off, pos+1):t.nonleaf.keyPos(off, cnt+1)], d[t.nonleaf.keyPos(off, pos):t.nonleaf.keyPos(off, cnt)])
		copy(d[t.nChildPos(off, pos+1):t.nChildPos(off, cnt+1)], d[t.nChildPos(off, pos):t.nChildPos(off, cnt)])
		t.mm.Copy(pg.Addr+uint64(t.nonleaf.keyPos(off, pos)), moved*4)
		t.mm.Copy(pg.Addr+uint64(t.nChildPos(off, pos)), moved*2)
	}
	t.nonleaf.setKey(d, off, pos, k)
	t.nSetChild(d, off, pos, child)
	t.setCount(d, off, cnt+1)
}

// inPageInsert inserts (k, p) into the page's in-page tree. It returns
// ok=false when the in-page tree is out of space and the caller must
// reorganize or split the page.
func (t *DiskFirst) inPageInsert(pg buffer.Page, k idx.Key, p uint32) (ok bool) {
	d := pg.Data
	var path inPath
	leafOff := t.descendInPage(pg, k, false, &path)
	t.visitLeaf(pg, leafOff)
	slot, _ := t.search(pg, leafOff, k, false)

	// Keep in-page separators true lower bounds (cf. bptree).
	for i, noff := range path.offs {
		if path.slots[i] == 0 && t.count(d, noff) > 0 && t.nonleaf.key(d, noff, 0) > k {
			t.nonleaf.setKey(d, noff, 0, k)
			t.mm.Access(pg.Addr+uint64(t.nonleaf.keyPos(noff, 0)), 4)
		}
	}

	if t.count(d, leafOff) < t.splitAt(d) {
		t.insert(pg, leafOff, slot, k, p)
		dfSetEntries(d, dfEntries(d)+1)
		return true
	}

	// The leaf node is full: count the nodes a split cascade needs and
	// check space before mutating anything.
	needNon := 0
	for i := len(path.offs) - 1; i >= 0; i-- {
		if t.count(d, path.offs[i]) >= t.capN {
			needNon++
		} else {
			break
		}
	}
	growRoot := needNon == len(path.offs) && len(path.offs) > 0 &&
		t.count(d, path.offs[0]) >= t.capN
	if len(path.offs) == 0 {
		// The root is the (full) leaf node itself: splitting it adds a
		// leaf sibling plus a new nonleaf root.
		growRoot = true
	}
	if growRoot {
		needNon++ // the new root
	}
	if t.freeCount(d, true) < 1 || !t.haveNonleafRoom(d, needNon) {
		return false
	}

	// Split the leaf node and insert into the half k belongs to.
	newLeaf := t.allocNode(d, true)
	sep := t.split(pg, leafOff, pg, newLeaf)
	t.lSetNext(d, newLeaf, t.lNext(d, leafOff))
	t.lSetNext(d, leafOff, newLeaf)
	into := leafOff
	if k >= sep {
		into = newLeaf
	}
	slot, _ = t.search(pg, into, k, false)
	t.insert(pg, into, slot, k, p)
	dfSetEntries(d, dfEntries(d)+1)

	// Propagate the separator up the in-page path.
	insKey, insChild := sep, newLeaf
	for i := len(path.offs) - 1; i >= 0; i-- {
		noff := path.offs[i]
		if t.count(d, noff) < t.capN {
			t.nonleafInsertAt(pg, noff, path.slots[i]+1, insKey, insChild)
			return true
		}
		// Split the nonleaf node.
		newNon := t.allocNode(d, false)
		cnt := t.count(d, noff)
		mid := cnt / 2
		moved := cnt - mid
		copy(d[t.nonleaf.keyPos(newNon, 0):t.nonleaf.keyPos(newNon, moved)], d[t.nonleaf.keyPos(noff, mid):t.nonleaf.keyPos(noff, cnt)])
		copy(d[t.nChildPos(newNon, 0):t.nChildPos(newNon, moved)], d[t.nChildPos(noff, mid):t.nChildPos(noff, cnt)])
		t.mm.CopyBetween(pg.Addr+uint64(t.nonleaf.keyPos(newNon, 0)), pg.Addr+uint64(t.nonleaf.keyPos(noff, mid)), moved*4)
		t.mm.CopyBetween(pg.Addr+uint64(t.nChildPos(newNon, 0)), pg.Addr+uint64(t.nChildPos(noff, mid)), moved*2)
		t.setCount(d, newNon, moved)
		t.setCount(d, noff, mid)
		t.nSetNext(d, newNon, t.nNext(d, noff))
		t.nSetNext(d, noff, newNon)
		nsep := t.nonleaf.key(d, newNon, 0)
		if insKey >= nsep {
			pos := t.findChildPos(d, newNon, insKey)
			t.nonleafInsertAt(pg, newNon, pos, insKey, insChild)
		} else {
			pos := t.findChildPos(d, noff, insKey)
			t.nonleafInsertAt(pg, noff, pos, insKey, insChild)
		}
		insKey, insChild = nsep, newNon
	}

	// The in-page root split (or the root was a lone leaf): grow the
	// in-page tree by one level.
	oldRoot := dfRoot(d)
	var oldMin idx.Key
	if dfInLevels(d) > 1 {
		oldMin = t.nonleaf.key(d, oldRoot, 0)
	} else {
		oldMin = t.key(d, oldRoot, 0)
		// The lone-leaf case: the split above was the leaf split.
		insKey, insChild = sep, newLeaf
	}
	newRoot := t.allocNode(d, false)
	t.setCount(d, newRoot, 2)
	t.nonleaf.setKey(d, newRoot, 0, oldMin)
	t.nSetChild(d, newRoot, 0, oldRoot)
	t.nonleaf.setKey(d, newRoot, 1, insKey)
	t.nSetChild(d, newRoot, 1, insChild)
	dfSetRoot(d, newRoot)
	dfSetInLevels(d, dfInLevels(d)+1)
	return true
}

// findChildPos returns the slot after the last key <= k in nonleaf off.
func (t *DiskFirst) findChildPos(d []byte, off int, k idx.Key) int {
	cnt := t.count(d, off)
	lo, hi := 0, cnt
	for lo < hi {
		mid := (lo + hi) / 2
		if t.nonleaf.key(d, off, mid) <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// haveNonleafRoom reports whether `need` nonleaf nodes can be allocated.
func (t *DiskFirst) haveNonleafRoom(d []byte, need int) bool {
	if need == 0 {
		return true
	}
	return t.freeCount(d, false) >= need
}

// ChildFor implements pagetree.Layout: the child pointer to follow for
// k in a nonleaf page (clamping below the leftmost separator).
func (t *DiskFirst) ChildFor(pg buffer.Page, k idx.Key, lt bool) (uint32, bool) {
	leafOff := t.descendInPage(pg, k, lt, nil)
	t.visitLeaf(pg, leafOff)
	slot, _ := t.search(pg, leafOff, k, lt)
	below := slot < 0
	if below {
		slot = 0
	}
	t.mm.Access(pg.Addr+uint64(t.ptrPos(leafOff, slot)), 4)
	return t.ptrAt(pg.Data, leafOff, slot), below
}
