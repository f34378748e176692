package core

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/idx"
)

// pair is an in-page entry: a key and either a tuple ID (leaf pages) or
// a child page ID (nonleaf pages).
type pair struct {
	key idx.Key
	ptr uint32
}

// buildInPage constructs a fresh in-page tree over entries (sorted).
// For leaf pages (spread=true) the entries are distributed evenly over
// the canonical number of in-page leaf nodes so later insertions find
// empty slots (§3.1.2); for nonleaf pages they are packed into one leaf
// node after another. It resets all space-management state of the page.
// Uncharged: callers charge reorganization/split costs explicitly.
func (t *DiskFirst) buildInPage(d []byte, entries []pair, spread bool) error {
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
		if t.gappedLeafPage(d) {
			// Gapped layout: interleave the node's free slots with its
			// entries instead of packing them at the tail (entry 0 still
			// lands on slot 0, so the min read below is unchanged).
			t.spreadLeafNode(d, off, entries[pos:pos+cnt])
			pos += cnt
		} else {
			t.lSetCount(d, off, cnt)
			for j := 0; j < cnt; j++ {
				t.lSetKey(d, off, j, entries[pos].key)
				t.lSetPtr(d, off, j, entries[pos].ptr)
				pos++
			}
		}
		if len(leafOffs) > 0 {
			t.lSetNext(d, leafOffs[len(leafOffs)-1], off)
		}
		var mn idx.Key
		if cnt > 0 {
			mn = t.lKey(d, off, 0)
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
			t.nSetCount(d, off, j-i)
			for m := i; m < j; m++ {
				t.nSetKey(d, off, m-i, keys[m])
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
func (t *DiskFirst) collectEntries(d []byte) []pair {
	out := make([]pair, 0, dfEntries(d))
	for off := dfFirstLeaf(d); off != 0; off = t.lNext(d, off) {
		for i := t.lNextOccupied(d, off, 0); i >= 0; i = t.lNextOccupied(d, off, i+1) {
			out = append(out, pair{t.lKey(d, off, i), t.lPtr(d, off, i)})
		}
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
		slot := t.searchNonleaf(pg, off, k, lt)
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

// b2i turns a comparison into an arithmetic select operand; the
// compiler lowers it to SETcc/CSET, so the search loops below carry no
// data-dependent branch the predictor could miss on (random keys make
// every probe a coin flip).
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// searchNonleaf finds the largest slot of a nonleaf node with key <= k
// (lt: < k); -1 if none. The answer comes from the hybrid data-parallel
// scan (binary narrowing to a window, SWAR lane compares inside it, see
// swar.go); the branchless binary search's exact probe sequence is then
// replayed for the memory model, so simulation outputs stay
// byte-identical.
func (t *DiskFirst) searchNonleaf(pg buffer.Page, off int, k idx.Key, lt bool) int {
	cnt := t.nCount(pg.Data, off)
	base := t.nKeyPos(off, 0)
	var lo int
	if cnt <= swarWindow {
		// Window-sized node: straight to the lane scan, skipping the
		// hybrid's call frame (see searchLeafNode).
		cLT, cGT := swarCountWords(pg.Data[base:], cnt>>1, swarBcast(k))
		if cnt&1 != 0 {
			last := idx.Key(le.Uint32(pg.Data[base+4*(cnt-1):]))
			cLT += b2i(last < k)
			cGT += b2i(last > k)
		}
		lo = swarBound(cnt, cLT, cGT, lt)
	} else {
		lo = swarScanSorted(pg.Data, base, cnt, k, lt)
	}
	// Checked here as well as inside the replay: in wall-clock mode
	// this saves the call entirely, and searches are the hot path.
	if !t.mm.Concurrent() {
		t.replaySearchCharges(pg, off, cnt, lo, false)
	}
	return lo - 1
}

// searchNonleafBranchless is the pre-SWAR branchless binary search,
// kept as the comparison baseline for benchmarks and the fuzz oracle.
func (t *DiskFirst) searchNonleafBranchless(pg buffer.Page, off int, k idx.Key, lt bool) int {
	lo, hi := 0, t.nCount(pg.Data, off)
	ge := b2i(!lt) // equal keys send the descent right unless strictly-less
	for lo < hi {
		mid := (lo + hi) / 2
		mk := t.probe(pg, t.nKeyPos(off, mid))
		right := b2i(mk < k) | ge&b2i(mk == k)
		lo += right * (mid + 1 - lo)
		hi = mid + right*(hi-mid)
	}
	return lo - 1
}

// searchLeafNode finds the largest slot of an in-page leaf node with
// key <= k (lt: < k) and whether that slot's key equals k (reported
// for <= searches only, matching the binary search it replaced). Dense
// nodes answer via the SWAR count scan with the binary-search charge
// replay; gapped leaf nodes (leaf pages under WithGappedLeaves) answer
// via the sentinel-skipping positional scan, whose result is the
// highest live physical slot satisfying the bound — the same
// predecessor contract, now over a sparse array.
func (t *DiskFirst) searchLeafNode(pg buffer.Page, off int, k idx.Key, lt bool) (int, bool) {
	d := pg.Data
	if t.gappedLeafPage(d) {
		slot, anyEq := swarScanGapped(d, t.lKeyPos(off, 0), t.capL, k, lt)
		t.chargeGappedScan(pg, t.lKeyPos(off, 0), t.capL)
		return slot, !lt && anyEq
	}
	cnt := t.lCount(d, off)
	base := t.lKeyPos(off, 0)
	var lo int
	if cnt <= swarWindow {
		// Window-sized node: one straight-line scan, no hybrid frame.
		// Duplicates swarScanSorted's no-narrowing arm because the
		// call itself costs ~5% of a cache-line-node search.
		cLT, cGT := swarCountWords(d[base:], cnt>>1, swarBcast(k))
		if cnt&1 != 0 {
			last := idx.Key(le.Uint32(d[base+4*(cnt-1):]))
			cLT += b2i(last < k)
			cGT += b2i(last > k)
		}
		lo = swarBound(cnt, cLT, cGT, lt)
	} else {
		lo = swarScanSorted(d, base, cnt, k, lt)
	}
	// On a sorted node the exact-match bit is just "the predecessor
	// equals k": one load instead of a second counting pass.
	exact := !lt && lo > 0 && idx.Key(le.Uint32(d[base+4*(lo-1):])) == k
	// Checked here as well as inside the replay: in wall-clock mode
	// this saves the call entirely, and searches are the hot path.
	if !t.mm.Concurrent() {
		t.replaySearchCharges(pg, off, cnt, lo, true)
	}
	return lo - 1, exact
}

// searchLeafNodeBranchless is the pre-SWAR branchless binary search
// over a dense leaf node, kept as the comparison baseline for
// benchmarks and the fuzz oracle.
func (t *DiskFirst) searchLeafNodeBranchless(pg buffer.Page, off int, k idx.Key, lt bool) (int, bool) {
	lo, hi := 0, t.lCount(pg.Data, off)
	ge := b2i(!lt)
	exact := 0
	for lo < hi {
		mid := (lo + hi) / 2
		mk := t.probe(pg, t.lKeyPos(off, mid))
		eq := b2i(mk == k)
		right := b2i(mk < k) | ge&eq
		exact |= right & eq
		lo += right * (mid + 1 - lo)
		hi = mid + right*(hi-mid)
	}
	return lo - 1, exact != 0
}

// leafInsertAt writes (k, p) into slot pos of leaf node off, shifting
// larger entries right (charged: this is the small data movement that
// replaces the disk-optimized tree's page-wide shifts).
func (t *DiskFirst) leafInsertAt(pg buffer.Page, off, pos int, k idx.Key, p uint32) {
	d := pg.Data
	cnt := t.lCount(d, off)
	if moved := cnt - pos; moved > 0 {
		copy(d[t.lKeyPos(off, pos+1):t.lKeyPos(off, cnt+1)], d[t.lKeyPos(off, pos):t.lKeyPos(off, cnt)])
		copy(d[t.lPtrPos(off, pos+1):t.lPtrPos(off, cnt+1)], d[t.lPtrPos(off, pos):t.lPtrPos(off, cnt)])
		t.mm.Copy(pg.Addr+uint64(t.lKeyPos(off, pos)), moved*4)
		t.mm.Copy(pg.Addr+uint64(t.lPtrPos(off, pos)), moved*4)
	}
	t.lSetKey(d, off, pos, k)
	t.lSetPtr(d, off, pos, p)
	t.lSetCount(d, off, cnt+1)
	t.mm.Access(pg.Addr+uint64(t.lKeyPos(off, pos)), 4)
	t.mm.Access(pg.Addr+uint64(t.lPtrPos(off, pos)), 4)
	// Nonleaf pages route child-pointer installs through this same
	// helper; the shift histogram tracks only data-leaf inserts.
	if dfType(d) == dfPageLeaf {
		t.recordShift(cnt - pos)
	}
}

// gappedLeafInsertAt writes (k, p) into gapped leaf node off, whose
// predecessor for k sits at physical slot `slot` (-1 when no live key
// qualifies). If the next slot is a gap the insert fills it with zero
// key movement; otherwise entries shift one position toward the
// nearest gap (left or right), which is the whole point of the gapped
// layout — O(distance-to-gap) moves instead of O(node tail).
func (t *DiskFirst) gappedLeafInsertAt(pg buffer.Page, off, slot int, k idx.Key, p uint32) {
	d := pg.Data
	occ := t.lCount(d, off)
	pos := slot + 1
	if pos < t.capL && t.lKey(d, off, pos) == gapSentinel {
		t.gapFills.Add(1)
		t.recordShift(0)
	} else {
		// Find the nearest gap on each side of the insertion point.
		gl, gr := -1, -1
		for i := slot; i >= 0; i-- {
			if t.lKey(d, off, i) == gapSentinel {
				gl = i
				break
			}
		}
		for i := pos + 1; i < t.capL; i++ {
			if t.lKey(d, off, i) == gapSentinel {
				gr = i
				break
			}
		}
		var moved int
		if gl >= 0 && (gr < 0 || slot-gl < gr-pos) {
			moved = slot - gl
		} else {
			moved = gr - pos
		}
		if moved > t.capL/8 {
			// The nearest gap is far: a one-slot shift chain would cost
			// nearly as much as a dense insert and leave the cluster
			// just as dense for the next one. Rebalance instead —
			// respread every live entry (plus the new one) evenly so
			// gaps return to the hot spot. Costs O(occ) once, then the
			// following inserts in this region are O(1) again.
			es := make([]pair, 0, occ+1)
			placed := false
			for i := t.lNextOccupied(d, off, 0); i >= 0; i = t.lNextOccupied(d, off, i+1) {
				ek := t.lKey(d, off, i)
				if !placed && ek > k {
					es = append(es, pair{k, p})
					placed = true
				}
				es = append(es, pair{ek, t.lPtr(d, off, i)})
			}
			if !placed {
				es = append(es, pair{k, p})
			}
			t.spreadLeafNode(d, off, es)
			t.mm.Copy(pg.Addr+uint64(t.lKeyPos(off, 0)), occ*4)
			t.mm.Copy(pg.Addr+uint64(t.lPtrPos(off, 0)), occ*4)
			t.recordShift(occ)
			return
		}
		if gl >= 0 && (gr < 0 || slot-gl < gr-pos) {
			// Shift (gl+1 .. slot) left one slot; k lands on slot.
			copy(d[t.lKeyPos(off, gl):t.lKeyPos(off, slot)], d[t.lKeyPos(off, gl+1):t.lKeyPos(off, slot+1)])
			copy(d[t.lPtrPos(off, gl):t.lPtrPos(off, slot)], d[t.lPtrPos(off, gl+1):t.lPtrPos(off, slot+1)])
			t.mm.Copy(pg.Addr+uint64(t.lKeyPos(off, gl)), moved*4)
			t.mm.Copy(pg.Addr+uint64(t.lPtrPos(off, gl)), moved*4)
			pos = slot
		} else {
			// Shift (pos .. gr-1) right one slot; k lands on pos.
			copy(d[t.lKeyPos(off, pos+1):t.lKeyPos(off, gr+1)], d[t.lKeyPos(off, pos):t.lKeyPos(off, gr)])
			copy(d[t.lPtrPos(off, pos+1):t.lPtrPos(off, gr+1)], d[t.lPtrPos(off, pos):t.lPtrPos(off, gr)])
			t.mm.Copy(pg.Addr+uint64(t.lKeyPos(off, pos)), moved*4)
			t.mm.Copy(pg.Addr+uint64(t.lPtrPos(off, pos)), moved*4)
		}
		t.recordShift(moved)
	}
	t.lSetKey(d, off, pos, k)
	t.lSetPtr(d, off, pos, p)
	t.lSetCount(d, off, occ+1)
	t.mm.Access(pg.Addr+uint64(t.lKeyPos(off, pos)), 4)
	t.mm.Access(pg.Addr+uint64(t.lPtrPos(off, pos)), 4)
}

// nonleafInsertAt installs (k, child) at slot pos of nonleaf node off.
func (t *DiskFirst) nonleafInsertAt(pg buffer.Page, off, pos int, k idx.Key, child int) {
	d := pg.Data
	cnt := t.nCount(d, off)
	if moved := cnt - pos; moved > 0 {
		copy(d[t.nKeyPos(off, pos+1):t.nKeyPos(off, cnt+1)], d[t.nKeyPos(off, pos):t.nKeyPos(off, cnt)])
		copy(d[t.nChildPos(off, pos+1):t.nChildPos(off, cnt+1)], d[t.nChildPos(off, pos):t.nChildPos(off, cnt)])
		t.mm.Copy(pg.Addr+uint64(t.nKeyPos(off, pos)), moved*4)
		t.mm.Copy(pg.Addr+uint64(t.nChildPos(off, pos)), moved*2)
	}
	t.nSetKey(d, off, pos, k)
	t.nSetChild(d, off, pos, child)
	t.nSetCount(d, off, cnt+1)
}

// inPageInsert inserts (k, p) into the page's in-page tree. It returns
// ok=false when the in-page tree is out of space and the caller must
// reorganize or split the page.
func (t *DiskFirst) inPageInsert(pg buffer.Page, k idx.Key, p uint32) (ok bool) {
	d := pg.Data
	var path inPath
	leafOff := t.descendInPage(pg, k, false, &path)
	t.visitLeaf(pg, leafOff)
	slot, _ := t.searchLeafNode(pg, leafOff, k, false)

	// Keep in-page separators true lower bounds (cf. bptree).
	for i, noff := range path.offs {
		if path.slots[i] == 0 && t.nCount(d, noff) > 0 && t.nKey(d, noff, 0) > k {
			t.nSetKey(d, noff, 0, k)
			t.mm.Access(pg.Addr+uint64(t.nKeyPos(noff, 0)), 4)
		}
	}

	gapped := t.gappedLeafPage(d)
	if t.lCount(d, leafOff) < t.leafSplitAt(gapped) {
		if gapped {
			t.gappedLeafInsertAt(pg, leafOff, slot, k, p)
		} else {
			t.leafInsertAt(pg, leafOff, slot+1, k, p)
		}
		dfSetEntries(d, dfEntries(d)+1)
		return true
	}

	// The leaf node is full: count the nodes a split cascade needs and
	// check space before mutating anything.
	needNon := 0
	for i := len(path.offs) - 1; i >= 0; i-- {
		if t.nCount(d, path.offs[i]) >= t.capN {
			needNon++
		} else {
			break
		}
	}
	growRoot := needNon == len(path.offs) && len(path.offs) > 0 &&
		t.nCount(d, path.offs[0]) >= t.capN
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

	// Split the leaf node. Gapped leaves split early (at the occupancy
	// threshold, before the gaps run dry), so the live entries are
	// collected across the gaps and each half is re-spread with fresh
	// interleaved gaps.
	newLeaf := t.allocNode(d, true)
	cnt := t.lCount(d, leafOff)
	mid := cnt / 2
	moved := cnt - mid
	var sep idx.Key
	if gapped {
		es := make([]pair, 0, cnt)
		for i := t.lNextOccupied(d, leafOff, 0); i >= 0; i = t.lNextOccupied(d, leafOff, i+1) {
			es = append(es, pair{t.lKey(d, leafOff, i), t.lPtr(d, leafOff, i)})
		}
		t.spreadLeafNode(d, leafOff, es[:mid])
		t.spreadLeafNode(d, newLeaf, es[mid:])
		sep = es[mid].key
	} else {
		copy(d[t.lKeyPos(newLeaf, 0):t.lKeyPos(newLeaf, moved)], d[t.lKeyPos(leafOff, mid):t.lKeyPos(leafOff, cnt)])
		copy(d[t.lPtrPos(newLeaf, 0):t.lPtrPos(newLeaf, moved)], d[t.lPtrPos(leafOff, mid):t.lPtrPos(leafOff, cnt)])
		t.lSetCount(d, newLeaf, moved)
		t.lSetCount(d, leafOff, mid)
		sep = t.lKey(d, newLeaf, 0)
	}
	t.mm.CopyBetween(pg.Addr+uint64(t.lKeyPos(newLeaf, 0)), pg.Addr+uint64(t.lKeyPos(leafOff, mid)), moved*4)
	t.mm.CopyBetween(pg.Addr+uint64(t.lPtrPos(newLeaf, 0)), pg.Addr+uint64(t.lPtrPos(leafOff, mid)), moved*4)
	t.lSetNext(d, newLeaf, t.lNext(d, leafOff))
	t.lSetNext(d, leafOff, newLeaf)

	if k >= sep {
		s, _ := t.searchLeafNode(pg, newLeaf, k, false)
		if gapped {
			t.gappedLeafInsertAt(pg, newLeaf, s, k, p)
		} else {
			t.leafInsertAt(pg, newLeaf, s+1, k, p)
		}
	} else {
		s, _ := t.searchLeafNode(pg, leafOff, k, false)
		if gapped {
			t.gappedLeafInsertAt(pg, leafOff, s, k, p)
		} else {
			t.leafInsertAt(pg, leafOff, s+1, k, p)
		}
	}
	dfSetEntries(d, dfEntries(d)+1)

	// Propagate the separator up the in-page path.
	insKey, insChild := sep, newLeaf
	for i := len(path.offs) - 1; i >= 0; i-- {
		noff := path.offs[i]
		if t.nCount(d, noff) < t.capN {
			t.nonleafInsertAt(pg, noff, path.slots[i]+1, insKey, insChild)
			return true
		}
		// Split the nonleaf node.
		newNon := t.allocNode(d, false)
		cnt := t.nCount(d, noff)
		mid := cnt / 2
		moved := cnt - mid
		copy(d[t.nKeyPos(newNon, 0):t.nKeyPos(newNon, moved)], d[t.nKeyPos(noff, mid):t.nKeyPos(noff, cnt)])
		copy(d[t.nChildPos(newNon, 0):t.nChildPos(newNon, moved)], d[t.nChildPos(noff, mid):t.nChildPos(noff, cnt)])
		t.mm.CopyBetween(pg.Addr+uint64(t.nKeyPos(newNon, 0)), pg.Addr+uint64(t.nKeyPos(noff, mid)), moved*4)
		t.mm.CopyBetween(pg.Addr+uint64(t.nChildPos(newNon, 0)), pg.Addr+uint64(t.nChildPos(noff, mid)), moved*2)
		t.nSetCount(d, newNon, moved)
		t.nSetCount(d, noff, mid)
		t.nSetNext(d, newNon, t.nNext(d, noff))
		t.nSetNext(d, noff, newNon)
		nsep := t.nKey(d, newNon, 0)
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
		oldMin = t.nKey(d, oldRoot, 0)
	} else {
		oldMin = t.lKey(d, oldRoot, 0)
		// The lone-leaf case: the split above was the leaf split.
		insKey, insChild = sep, newLeaf
	}
	newRoot := t.allocNode(d, false)
	t.nSetCount(d, newRoot, 2)
	t.nSetKey(d, newRoot, 0, oldMin)
	t.nSetChild(d, newRoot, 0, oldRoot)
	t.nSetKey(d, newRoot, 1, insKey)
	t.nSetChild(d, newRoot, 1, insChild)
	dfSetRoot(d, newRoot)
	dfSetInLevels(d, dfInLevels(d)+1)
	return true
}

// findChildPos returns the slot after the last key <= k in nonleaf off.
func (t *DiskFirst) findChildPos(d []byte, off int, k idx.Key) int {
	cnt := t.nCount(d, off)
	lo, hi := 0, cnt
	for lo < hi {
		mid := (lo + hi) / 2
		if t.nKey(d, off, mid) <= k {
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

// inPageDelete removes one entry with key k; reports whether found.
func (t *DiskFirst) inPageDelete(pg buffer.Page, k idx.Key) bool {
	d := pg.Data
	leafOff := t.descendInPage(pg, k, false, nil)
	t.visitLeaf(pg, leafOff)
	slot, exact := t.searchLeafNode(pg, leafOff, k, false)
	if !exact {
		return false
	}
	cnt := t.lCount(d, leafOff)
	if t.gappedLeafPage(d) {
		// Punch a gap: O(1), no shifting.
		t.lSetKey(d, leafOff, slot, gapSentinel)
		t.mm.Access(pg.Addr+uint64(t.lKeyPos(leafOff, slot)), 4)
	} else if moved := cnt - slot - 1; moved > 0 {
		copy(d[t.lKeyPos(leafOff, slot):t.lKeyPos(leafOff, cnt-1)], d[t.lKeyPos(leafOff, slot+1):t.lKeyPos(leafOff, cnt)])
		copy(d[t.lPtrPos(leafOff, slot):t.lPtrPos(leafOff, cnt-1)], d[t.lPtrPos(leafOff, slot+1):t.lPtrPos(leafOff, cnt)])
		t.mm.Copy(pg.Addr+uint64(t.lKeyPos(leafOff, slot)), moved*4)
		t.mm.Copy(pg.Addr+uint64(t.lPtrPos(leafOff, slot)), moved*4)
	}
	t.lSetCount(d, leafOff, cnt-1)
	dfSetEntries(d, dfEntries(d)-1)
	return true
}

// inPageSearch finds k in the page; returns (ptr, found).
func (t *DiskFirst) inPageSearch(pg buffer.Page, k idx.Key) (uint32, bool) {
	leafOff := t.descendInPage(pg, k, false, nil)
	t.visitLeaf(pg, leafOff)
	slot, exact := t.searchLeafNode(pg, leafOff, k, false)
	if !exact {
		return 0, false
	}
	t.mm.Access(pg.Addr+uint64(t.lPtrPos(leafOff, slot)), 4)
	return t.lPtr(pg.Data, leafOff, slot), true
}

// ChildFor implements pagetree.Layout: the child pointer to follow for
// k in a nonleaf page (clamping below the leftmost separator).
func (t *DiskFirst) ChildFor(pg buffer.Page, k idx.Key, lt bool) uint32 {
	leafOff := t.descendInPage(pg, k, lt, nil)
	t.visitLeaf(pg, leafOff)
	slot, _ := t.searchLeafNode(pg, leafOff, k, lt)
	if slot < 0 {
		slot = 0
	}
	t.mm.Access(pg.Addr+uint64(t.lPtrPos(leafOff, slot)), 4)
	return t.lPtr(pg.Data, leafOff, slot)
}
