package core

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/latch"
)

// Read protocol. Each read operation has one body for both modes: a
// descent from the root to the leaf node (descend), then a walk along
// the leaf-node chain, page by page (hop).
//
// In serving mode crab-style latch coupling is unsafe: page splits (the
// Figure 9 maneuvers) discover the pages they touch *during* the
// mutation — back-pointer walks, sideways leaf-parent chain walks,
// overflow allocation — so no global latch order covers a writer, and
// a reader holding a parent latch while acquiring a child can close a
// cycle with a splitting writer. Instead, readers hold exactly ONE
// shared latch at a time (the old page is unpinned before the next is
// pinned), so a reader never holds-and-waits and no cycle can involve
// it; structural writers serialize on wMu, leaving at most one
// hold-and-waiter in the system — deadlock-free by construction.
//
// Because a reader releases a page before following a pointer out of
// it, the pointer may be invalidated by a concurrent page split
// relocating nodes. Splits bracket themselves with relocBegin/relocEnd
// on the reloc epoch counter (odd while a split is in flight); a
// reader samples an even epoch before descending and re-validates it
// after every cross-page pin. A changed epoch means node addresses may
// have moved — the operation restarts from the root (scans resume
// after the last key already delivered). In-page node splits do not
// bump the epoch: the strictly-less descent lands at-or-left of the
// target and the forward leaf-node chain walk recovers entries that
// moved right within (or out of) the node; the reverse scan steps right
// before it starts for the same reason (lastNodeFor, reverseScanPage).
//
// In simulate mode relocBegin/relocEnd leave the epoch alone, so every
// check passes and every restart loop runs once. The one difference
// left is the order of a page transition's pool calls: a simulated
// descent or point walk (and the wMu writer in either mode) pins the
// next page before unpinning the last. Scans hold one page at a time
// in both modes.

// descend walks from the root to the leaf node for k (lt selects
// strictly-less descent) under epoch e and returns it with no page
// pinned: the walk that follows pins the leaf's page with hop, which
// validates e once more (a simulated JPA scan prefetches in between).
// write pins exclusively in serving mode (Delete under wMu). ok=false
// reports a stale epoch: the caller restarts. A nil leaf means the
// tree is empty.
func (t *CacheFirst) descend(k idx.Key, lt bool, e uint64, write bool) (leaf ptr, ok bool, err error) {
	cur, height := t.rootPtrHeight()
	var pg buffer.Page
	for lvl := height - 1; lvl > 0; lvl-- {
		if cur.pid != pg.ID {
			if ok, err = t.hop(&pg, cur.pid, e, write); !ok {
				return nilPtr, false, err
			}
		}
		t.visitNode(pg, cur.off)
		slot, _ := t.search(pg, cur.off, k, lt)
		if slot < 0 {
			slot = 0
		}
		cur = t.cChild(pg.Data, cur.off, slot)
		if cur.isNil() {
			t.pool.Unpin(pg, false)
			return nilPtr, false, fmt.Errorf("core: nil child during cache-first descent")
		}
	}
	t.unpinIf(pg)
	return cur, true, nil
}

// hop moves a walk from page *pg (pinned, or invalid) to page pid, a
// different one, and re-checks the relocation epoch e. It reports
// false, with *pg invalid and neither page pinned, on an error or a
// stale epoch. write pins with getWrite. A serving-mode reader unpins
// the old page before it pins pid, holding one latch at a time;
// simulate mode and the wMu writer pin pid first.
func (t *CacheFirst) hop(pg *buffer.Page, pid uint32, e uint64, write bool) (bool, error) {
	prev := *pg
	if t.conc && !write && prev.Valid() {
		t.pool.Unpin(prev, false)
		prev = buffer.Page{}
	}
	var err error
	if write {
		*pg, err = t.getWrite(pid)
	} else {
		*pg, err = t.pool.Get(pid)
	}
	t.unpinIf(prev)
	if err == nil && t.reloc.Load() != e {
		t.pool.Unpin(*pg, false)
		*pg = buffer.Page{}
	}
	return pg.Valid(), err
}

// Search implements idx.Index. The descent follows full ⟨page, offset⟩
// pointers; when a child lives in the same page as its parent, the node
// is accessed directly without another buffer-manager fix (§3.2.2).
// Point lookups descend with strictly-less comparisons and walk forward
// over the duplicate run, so exact matches survive deletions among
// duplicates.
func (t *CacheFirst) Search(k idx.Key) (idx.TupleID, bool, error) {
	t.ops.Searches.Add(1)
	if tid, found, handled := t.searchOpt(k); handled {
		return tid, found, nil
	}
	return t.lookup(k)
}

// lookup is the latched point lookup: descend, then findFrom, from the
// root again whenever the relocation epoch moves.
func (t *CacheFirst) lookup(k idx.Key) (idx.TupleID, bool, error) {
	var bo latch.Backoff
	for {
		e := t.relocEpoch()
		cur, ok, err := t.descend(k, true, e, false)
		if ok {
			var tid idx.TupleID
			var found bool
			if tid, found, ok, err = t.findFrom(buffer.Page{}, cur, k, e); ok {
				return tid, found, nil
			}
		}
		if err != nil {
			return 0, false, err
		}
		t.epochRestart(&bo)
	}
}

// findFrom walks the leaf-node chain from cur to the first entry >= k
// and returns its tuple if its key is k. held is a page the caller
// keeps pinned (SearchBatch's group page) or invalid; the walk starts
// on it and never unpins it, and every page it pins itself is unpinned
// when it returns. ok=false reports an error or a stale epoch e.
func (t *CacheFirst) findFrom(held buffer.Page, cur ptr, k idx.Key, e uint64) (tid idx.TupleID, found, ok bool, err error) {
	pg := held
	for !cur.isNil() {
		if cur.pid != pg.ID {
			if pg.ID == held.ID {
				pg = buffer.Page{}
			}
			if ok, err = t.hop(&pg, cur.pid, e, false); !ok {
				return 0, false, false, err
			}
		}
		t.visitNode(pg, cur.off)
		slot, _ := t.search(pg, cur.off, k, true)
		if slot = t.nextOccupied(pg.Data, cur.off, slot+1); slot >= 0 {
			t.mm.Access(pg.Addr+uint64(t.keyPos(cur.off, slot)), 4)
			if found = t.key(pg.Data, cur.off, slot) == k; found {
				t.mm.Access(pg.Addr+uint64(t.ptrPos(cur.off, slot)), 4)
				tid = t.ptrAt(pg.Data, cur.off, slot)
			}
			break
		}
		cur = t.cNextLeaf(pg.Data, cur.off)
	}
	if pg.Valid() && pg.ID != held.ID {
		t.pool.Unpin(pg, false)
	}
	return tid, found, true, nil
}

// Insert implements idx.Index using preemptive splitting: a full node
// encountered on the descent is split immediately (its parent has a
// free entry by induction). When a node split needs a slot and the page
// has none, the page itself is split (leaf pages: second half of the
// leaf nodes moves out, §3.2.2; node pages: half of the top node's
// in-page subtrees relocate, the Figure 9(c) maneuver) and the insert
// restarts from the root, since node addresses may have changed.
func (t *CacheFirst) Insert(k idx.Key, tid idx.TupleID) error {
	t.ops.Inserts.Add(1)
	if t.gapped && k == gapSentinel {
		return fmt.Errorf("core: key %#x is reserved as the gap sentinel under GappedLeaves", uint32(k))
	}
	if t.conc {
		if t.insertLeafOpt(k, tid) {
			return nil
		}
		// Structural writers serialize with each other (never with
		// readers or leaf-only writers); see the note on the struct. The
		// holder is done in microseconds: spin before parking.
		latch.SpinLock(&t.wMu)
		defer t.wMu.Unlock()
		t.pool.Latches().OptWriteFallback()
	}
	if root, _ := t.rootPtrHeight(); root.isNil() {
		pg, err := t.newPage(pageLeaf)
		if err != nil {
			return err
		}
		off := t.allocSlot(pg.Data)
		if t.gapped {
			// Slots are zero-filled and key 0 is valid: mark every slot
			// of the fresh leaf node as a gap explicitly.
			t.sentinelFill(pg.Data, off)
		}
		t.pool.Unpin(pg, true)
		t.jpaAppend(pg.ID)
		at := ptr{pg.ID, off}
		t.setFirstLeaf(at)
		t.setRootHeight(at, 1)
	}

	for attempt := 0; ; attempt++ {
		if attempt > 64 {
			return fmt.Errorf("core: cache-first insert of %d did not converge", k)
		}
		restart, err := t.insertOnce(k, tid)
		if err != nil {
			return err
		}
		if !restart {
			return nil
		}
	}
}

// insertOnce performs one descent. It returns restart=true when a page
// split invalidated node addresses mid-descent.
func (t *CacheFirst) insertOnce(k idx.Key, tid idx.TupleID) (bool, error) {
	// Grow the root first if it is full.
	if err := t.maybeGrowRoot(); err != nil {
		return false, err
	}

	cur, height := t.rootPtrHeight()
	// pg is the page the descent holds; dirty, whether it wrote it. A
	// page only routed through is unpinned clean and not redo-logged.
	var pg buffer.Page
	dirty := false
	release := func() {
		if pg.Valid() {
			t.pool.Unpin(pg, dirty)
			pg = buffer.Page{}
		}
	}
	// step moves the descent to pid, releasing pg unless pid is pg.
	step := func(pid uint32) error {
		npg, pinned, err := t.getPageW(pg, pid)
		if pinned || err != nil {
			release()
			dirty = false
		}
		pg = npg // the zero page on an error
		return err
	}
	for lvl := height - 1; lvl > 0; lvl-- {
		if err := step(cur.pid); err != nil {
			return false, err
		}
		t.visitNode(pg, cur.off)
		slot, _ := t.search(pg, cur.off, k, false)
		if slot < 0 {
			slot = 0
			if t.key(pg.Data, cur.off, 0) > k {
				t.setKey(pg.Data, cur.off, 0, k)
				t.mm.Access(pg.Addr+uint64(t.keyPos(cur.off, 0)), 4)
				dirty = true
			}
		}
		child := t.cChild(pg.Data, cur.off, slot)

		// Preemptive split of a full child.
		full, cpg, err := t.childFull(pg, child, lvl-1)
		if err != nil {
			release()
			return false, err
		}
		if full {
			// The split installs a separator here, and a page split under
			// it writes this page again as one of its held pages (pinW).
			dirty = true
			sep, right, restart, err := t.splitChild(pg, cur, slot, cpg, child, lvl-1)
			if cpg.Valid() && cpg.ID != pg.ID {
				t.pool.Unpin(cpg, true)
			}
			if err != nil || restart {
				release()
				return restart, err
			}
			if k >= sep {
				child = right
			}
		} else if cpg.Valid() && cpg.ID != pg.ID {
			t.pool.Unpin(cpg, false)
		}
		cur = child
	}

	if err := step(cur.pid); err != nil {
		return false, err
	}
	if t.count(pg.Data, cur.off) >= t.splitAt(pg.Data) {
		// insert would write past a full node's arrays. Leaf-only
		// writers fill nodes without wMu; the latch held on the parent's
		// page since childFull fails their validation, and this re-check
		// keeps the guarantee local to the page being written.
		release()
		return true, nil
	}
	t.visitNode(pg, cur.off)
	slot, _ := t.search(pg, cur.off, k, false)
	t.insert(pg, cur.off, slot, k, tid)
	t.pool.Unpin(pg, true)
	return false, nil
}

// getPageW pins pid for a writer, reusing cur if it is already that
// page (§3.2.2's "directly access the node in the page without
// retrieving the page from the buffer manager"). It reports whether it
// pinned; a new pin is exclusively latched in serving mode.
func (t *CacheFirst) getPageW(cur buffer.Page, pid uint32) (buffer.Page, bool, error) {
	if cur.Valid() && cur.ID == pid {
		return cur, false, nil
	}
	pg, err := t.getWrite(pid)
	if err != nil {
		return buffer.Page{}, false, err
	}
	return pg, true, nil
}

// jpaAppend / jpaInsertAfter guard the (not thread-safe) jump-pointer
// array; uncontended in single-threaded mode.
func (t *CacheFirst) jpaAppend(pid uint32) {
	t.jpaMu.Lock()
	t.jpa.Append(pid)
	t.jpaMu.Unlock()
}

func (t *CacheFirst) jpaInsertAfter(after, pid uint32) error {
	t.jpaMu.Lock()
	defer t.jpaMu.Unlock()
	return t.jpa.InsertAfter(after, pid)
}

// childFull reports whether the child node is full, returning its page
// pinned (or pg itself when the child shares the parent's page).
func (t *CacheFirst) childFull(pg buffer.Page, child ptr, childLvl int) (bool, buffer.Page, error) {
	cpg, _, err := t.getPageW(pg, child.pid)
	if err != nil {
		return false, buffer.Page{}, err
	}
	cap := t.capN
	if childLvl == 0 {
		cap = t.splitAt(cpg.Data)
	}
	return t.count(cpg.Data, child.off) >= cap, cpg, nil
}

// maybeGrowRoot adds a level when the root node is full. The new
// root/height pair is published last, after its page content is
// complete, so a concurrent reader's stale pair stays a valid entry.
func (t *CacheFirst) maybeGrowRoot() error {
	root, height := t.rootPtrHeight()
	pg, err := t.getWrite(root.pid)
	if err != nil {
		return err
	}
	cap := t.capN
	if height == 1 {
		cap = t.splitAt(pg.Data)
	}
	if t.count(pg.Data, root.off) < cap {
		t.pool.Unpin(pg, false)
		return nil
	}
	oldMin := t.key(pg.Data, root.off, 0)
	// Place the new root: in the old root's page if that is a node page
	// with a slot, else as the top node of a fresh node page.
	var at ptr
	if cfKind(pg.Data) == cfPageNode && t.hasSlot(pg.Data) {
		off := t.allocSlot(pg.Data)
		at = ptr{pg.ID, off}
		cfSetTop(pg.Data, off)
		t.setCount(pg.Data, off, 1)
		t.setKey(pg.Data, off, 0, oldMin)
		t.cSetChild(pg.Data, off, 0, root)
		t.pool.Unpin(pg, true)
	} else {
		t.pool.Unpin(pg, false)
		np, err := t.newPage(cfPageNode)
		if err != nil {
			return err
		}
		off := t.allocSlot(np.Data)
		at = ptr{np.ID, off}
		cfSetTop(np.Data, off)
		t.setCount(np.Data, off, 1)
		t.setKey(np.Data, off, 0, oldMin)
		t.cSetChild(np.Data, off, 0, root)
		t.pool.Unpin(np, true)
	}
	if height == 1 {
		// The new root is the tree's first leaf parent: record it as
		// the leaf page's back pointer (§3.2.2).
		lp, err := t.getWrite(root.pid)
		if err != nil {
			return err
		}
		cfSetBack(lp.Data, at)
		t.pool.Unpin(lp, true)
	}
	t.setRootHeight(at, height+1)
	return nil
}

// splitChild splits the full child at (cpg, child) whose parent entry
// is (pg, parent, slot). childLvl 0 = leaf, 1 = leaf parent. Returns
// the separator and the new right node, or restart=true if a page
// split invalidated addresses.
func (t *CacheFirst) splitChild(pg buffer.Page, parent ptr, slot int, cpg buffer.Page, child ptr, childLvl int) (idx.Key, ptr, bool, error) {
	var right ptr
	var rpg buffer.Page

	switch {
	case childLvl == 0:
		// Leaf: sibling in the same leaf page, else split the page.
		if off := t.allocSlot(cpg.Data); off != 0 {
			right = ptr{child.pid, off}
			rpg = cpg
		} else {
			if err := t.splitLeafPage(child.pid, cpg, pg); err != nil {
				return 0, nilPtr, false, err
			}
			return 0, nilPtr, true, nil
		}
	case childLvl == 1:
		// Leaf parent: the new node may come from overflow pages.
		at, err := t.allocOverflowSlot(cpg)
		if err != nil {
			return 0, nilPtr, false, err
		}
		right = at
		if t.conc && at.pid == cpg.ID {
			// The overflow slot landed in the already-latched child
			// page (latches are not reentrant).
			rpg = cpg
		} else {
			if rpg, err = t.getWrite(at.pid); err != nil {
				return 0, nilPtr, false, err
			}
			defer t.pool.Unpin(rpg, true)
		}
	default:
		// Other nonleaf: same page; else split the node page (Fig. 9c)
		// and restart; if nothing in the page is relocatable, fall back
		// to Figure 9(b): the sibling tops a fresh node page.
		if off := t.allocSlot(cpg.Data); off != 0 {
			right = ptr{child.pid, off}
			rpg = cpg
		} else {
			ok, err := t.splitNodePage(child.pid, cpg, pg)
			if err != nil {
				return 0, nilPtr, false, err
			}
			if ok {
				return 0, nilPtr, true, nil
			}
			np, err := t.newPage(cfPageNode)
			if err != nil {
				return 0, nilPtr, false, err
			}
			off := t.allocSlot(np.Data)
			cfSetTop(np.Data, off)
			right = ptr{np.ID, off}
			rpg = np
			defer t.pool.Unpin(np, true)
		}
	}

	// Move the upper half of child to right.
	var sep idx.Key
	if childLvl == 0 {
		sep = t.split(cpg, child.off, rpg, right.off)
		// Leaf sibling chain.
		t.cSetNextLeaf(rpg.Data, right.off, t.cNextLeaf(cpg.Data, child.off))
		t.cSetNextLeaf(cpg.Data, child.off, right)
	} else {
		cd, rd := cpg.Data, rpg.Data
		cnt := t.count(cd, child.off)
		mid := cnt / 2
		moved := cnt - mid
		copy(rd[t.keyPos(right.off, 0):t.keyPos(right.off, moved)], cd[t.keyPos(child.off, mid):t.keyPos(child.off, cnt)])
		copy(rd[t.cPidPos(right.off, 0):t.cPidPos(right.off, moved)], cd[t.cPidPos(child.off, mid):t.cPidPos(child.off, cnt)])
		copy(rd[t.cOffPos(right.off, 0):t.cOffPos(right.off, moved)], cd[t.cOffPos(child.off, mid):t.cOffPos(child.off, cnt)])
		t.mm.CopyBetween(rpg.Addr+uint64(t.keyPos(right.off, 0)), cpg.Addr+uint64(t.keyPos(child.off, mid)), moved*4)
		t.mm.CopyBetween(rpg.Addr+uint64(t.cPidPos(right.off, 0)), cpg.Addr+uint64(t.cPidPos(child.off, mid)), moved*6)
		if childLvl == 1 {
			// Leaf-parent sibling chain (drives leaf-page splits).
			t.cSetNextLeaf(rd, right.off, t.cNextLeaf(cd, child.off))
			t.cSetNextLeaf(cd, child.off, right)
			if err := t.fixBackPointersAfterParentSplit(cd, child, rd, right, mid, cnt); err != nil {
				return 0, nilPtr, false, err
			}
		}
		t.setCount(cd, child.off, mid)
		t.setCount(rd, right.off, moved)
		sep = t.key(rd, right.off, 0)
	}

	// Install the separator into the (non-full) parent.
	t.installChild(pg, parent, slot+1, sep, right)
	return sep, right, false, nil
}

// installChild inserts (k, child) at position pos of the nonleaf parent.
func (t *CacheFirst) installChild(pg buffer.Page, parent ptr, pos int, k idx.Key, child ptr) {
	d := pg.Data
	cnt := t.count(d, parent.off)
	if moved := cnt - pos; moved > 0 {
		copy(d[t.keyPos(parent.off, pos+1):t.keyPos(parent.off, cnt+1)], d[t.keyPos(parent.off, pos):t.keyPos(parent.off, cnt)])
		copy(d[t.cPidPos(parent.off, pos+1):t.cPidPos(parent.off, cnt+1)], d[t.cPidPos(parent.off, pos):t.cPidPos(parent.off, cnt)])
		copy(d[t.cOffPos(parent.off, pos+1):t.cOffPos(parent.off, cnt+1)], d[t.cOffPos(parent.off, pos):t.cOffPos(parent.off, cnt)])
		t.mm.Copy(pg.Addr+uint64(t.keyPos(parent.off, pos)), moved*4)
		t.mm.Copy(pg.Addr+uint64(t.cPidPos(parent.off, pos)), moved*6)
	}
	t.setKey(d, parent.off, pos, k)
	t.cSetChild(d, parent.off, pos, child)
	t.setCount(d, parent.off, cnt+1)
}

// fixBackPointersAfterParentSplit repairs leaf-page back pointers after
// the children [mid, cnt) of a split leaf parent moved under `right`:
// a leaf page whose first node's parent moved must point at the new
// parent. A page's first node is under the old parent iff one of the
// remaining children [0, mid) also points into that page (leaf pages
// cover contiguous key ranges).
func (t *CacheFirst) fixBackPointersAfterParentSplit(cd []byte, child ptr, rd []byte, right ptr, mid, cnt int) error {
	keptPages := make(map[uint32]bool, mid)
	for i := 0; i < mid; i++ {
		keptPages[t.cChild(cd, child.off, i).pid] = true
	}
	seen := make(map[uint32]bool)
	for i := 0; i < cnt-mid; i++ {
		cp := t.cChild(rd, right.off, i)
		if seen[cp.pid] || keptPages[cp.pid] {
			continue
		}
		seen[cp.pid] = true
		lp, err := t.getWrite(cp.pid)
		if err != nil {
			return err
		}
		if cfBack(lp.Data) == child {
			cfSetBack(lp.Data, right)
			t.pool.Unpin(lp, true)
		} else {
			t.pool.Unpin(lp, false)
		}
	}
	return nil
}

// Delete implements idx.Index (lazy deletion); removes the first entry
// of a duplicate run. In serving mode a delete that one leaf page
// decides is leaf-only; the rest serialize on wMu like Insert and walk
// with exclusive latches, pinning the next page before releasing the
// last (safe for the single wMu writer: nobody else holds-and-waits).
func (t *CacheFirst) Delete(k idx.Key) (bool, error) {
	t.ops.Deletes.Add(1)
	if t.conc {
		if found, done := t.deleteLeafOpt(k); done {
			return found, nil
		}
		latch.SpinLock(&t.wMu)
		defer t.wMu.Unlock()
		t.pool.Latches().OptWriteFallback()
	}
	// Relocations run under wMu, so the epoch cannot move under this walk.
	e := t.reloc.Load()
	cur, _, err := t.descend(k, true, e, true)
	var pg buffer.Page
	for err == nil && !cur.isNil() {
		if _, err = t.hop(&pg, cur.pid, e, true); err != nil {
			break
		}
		found, decided, next := t.deleteInPage(pg, cur, k)
		if decided {
			return found, nil
		}
		cur = next
	}
	t.unpinIf(pg)
	return false, err
}

// deleteInPage walks the leaf-node chain inside the pinned (in serving
// mode exclusively latched) pg from cur to the first entry >= k,
// removes it if it equals k and unpins the page. decided=false leaves
// pg pinned: the run may start at next, in another page (nil: the
// chain ends, k is absent).
func (t *CacheFirst) deleteInPage(pg buffer.Page, cur ptr, k idx.Key) (found, decided bool, next ptr) {
	for ; cur.pid == pg.ID; cur = t.cNextLeaf(pg.Data, cur.off) {
		t.visitNode(pg, cur.off)
		slot, _ := t.search(pg, cur.off, k, true)
		if slot = t.nextOccupied(pg.Data, cur.off, slot+1); slot >= 0 {
			t.mm.Access(pg.Addr+uint64(t.keyPos(cur.off, slot)), 4)
			if found = t.key(pg.Data, cur.off, slot) == k; found {
				t.remove(pg, cur.off, slot)
			}
			t.pool.Unpin(pg, found)
			return found, true, nilPtr
		}
	}
	return false, false, cur
}
