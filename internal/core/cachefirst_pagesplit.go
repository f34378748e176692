package core

import (
	"fmt"
	"sort"

	"repro/internal/buffer"
)

// pageSlots returns the live node offsets of a page (slot order).
func (t *CacheFirst) pageSlots(d []byte) []int {
	free := make(map[int]bool)
	for off := cfFreeHead(d); off != 0; off = int(le.Uint16(d[nodeBase(off):])) {
		free[off] = true
	}
	var offs []int
	for off := 1; off+t.s <= cfNextFree(d); off += t.s {
		if !free[off] {
			offs = append(offs, off)
		}
	}
	return offs
}

// leafNodesInChainOrder returns a leaf page's nodes in key (chain)
// order: the node chain enters the page once and visits its nodes
// consecutively, so the first node is the one no in-page node points to.
func (t *CacheFirst) leafNodesInChainOrder(pg buffer.Page) ([]int, error) {
	offs := t.pageSlots(pg.Data)
	if len(offs) == 0 {
		return nil, nil
	}
	pointed := make(map[int]bool)
	for _, off := range offs {
		if nx := t.cNextLeaf(pg.Data, off); nx.pid == pg.ID {
			pointed[nx.off] = true
		}
	}
	first := -1
	for _, off := range offs {
		if !pointed[off] {
			if first != -1 {
				return nil, fmt.Errorf("core: leaf page %d chain has two heads", pg.ID)
			}
			first = off
		}
	}
	if first == -1 {
		return nil, fmt.Errorf("core: leaf page %d chain is cyclic", pg.ID)
	}
	ordered := make([]int, 0, len(offs))
	for off := first; ; {
		ordered = append(ordered, off)
		nx := t.cNextLeaf(pg.Data, off)
		if nx.pid != pg.ID {
			break
		}
		off = nx.off
	}
	if len(ordered) != len(offs) {
		return nil, fmt.Errorf("core: leaf page %d chain covers %d of %d nodes", pg.ID, len(ordered), len(offs))
	}
	return ordered, nil
}

// pinW pins a page for writing, reusing a caller-held exclusively
// latched page when its ID matches (concurrent-mode latches are not
// reentrant, so re-latching a held page would self-deadlock). reused
// pages must not be unpinned by the callee — their dirtiness is
// settled by the owner: the writer descent marks the pages it hands to
// a split dirty before the split runs. Sequential mode never reuses, keeping the pool call sequence
// (and thus every charged counter) byte-identical to earlier builds.
func (t *CacheFirst) pinW(pid uint32, held []buffer.Page) (buffer.Page, bool, error) {
	if t.conc {
		for _, h := range held {
			if h.Valid() && h.ID == pid {
				return h, true, nil
			}
		}
	}
	pg, err := t.getWrite(pid)
	return pg, false, err
}

// splitLeafPage moves the second half of the page's leaf nodes (in key
// order) to a new leaf page (§3.2.2), fixing the leaf chain, the
// parents' child pointers (walked from the page's back pointer through
// the leaf-parent sibling links), the pages' back pointers, and the
// external jump-pointer array. held lists every page the caller has
// exclusively latched (the page being split and the descent parent);
// any of them reached again here is reused instead of re-pinned. The
// relocation epoch is odd for the whole split: node slots move between
// pages and are freed, so concurrent readers must not trust
// ⟨pid, off⟩ pointers carried across it.
func (t *CacheFirst) splitLeafPage(pid uint32, held ...buffer.Page) error {
	t.relocBegin()
	defer t.relocEnd()
	pg, reused, err := t.pinW(pid, held)
	if err != nil {
		return err
	}
	if !reused {
		defer t.pool.Unpin(pg, true)
	}
	nodes, err := t.leafNodesInChainOrder(pg)
	if err != nil {
		return err
	}
	if len(nodes) < 2 {
		return fmt.Errorf("core: cannot split leaf page %d with %d nodes", pid, len(nodes))
	}
	mid := len(nodes) / 2
	moved := nodes[mid:]

	np, err := t.newPage(pageLeaf)
	if err != nil {
		return err
	}
	defer t.pool.Unpin(np, true)

	// Copy the moved nodes and free their old slots.
	mapping := make(map[int]ptr, len(moved))
	newOffs := make([]int, len(moved))
	for i, off := range moved {
		noff := t.allocSlot(np.Data)
		if noff == 0 {
			return fmt.Errorf("core: fresh leaf page %d filled up during split", np.ID)
		}
		copy(np.Data[nodeBase(noff):nodeBase(noff)+t.s*lineSize], pg.Data[nodeBase(off):nodeBase(off)+t.s*lineSize])
		mapping[off] = ptr{np.ID, noff}
		newOffs[i] = noff
	}
	t.mm.CopyBetween(np.Addr+lineSize, pg.Addr+uint64(nodeBase(moved[0])), len(moved)*t.s*lineSize)

	// Rewrite the intra-page chain among the moved nodes; the last
	// moved node keeps its old next (it pointed outside the page).
	for i := 0; i+1 < len(moved); i++ {
		t.cSetNextLeaf(np.Data, newOffs[i], ptr{np.ID, newOffs[i+1]})
	}
	// The last unmoved node now points at the first moved node's new home.
	t.cSetNextLeaf(pg.Data, nodes[mid-1], mapping[moved[0]])

	// Fix parents by walking the leaf-parent chain from the page's
	// back pointer; every moved node has exactly one parent entry.
	remaining := len(moved)
	cur := cfBack(pg.Data)
	if cur.isNil() {
		// Stale or never-set back pointer: recover by walking the
		// whole leaf-parent chain from the left.
		cur = t.firstLeafParent(held...)
	}
	var newBack ptr
	retried := false
	for remaining > 0 {
		if cur.isNil() {
			if !retried {
				retried = true
				cur = t.firstLeafParent(held...)
				continue
			}
			return fmt.Errorf("core: leaf-parent walk exhausted with %d pointers unfixed (page %d)", remaining, pid)
		}
		// The chain can run through the descent parent the caller still
		// holds (leaf parents live in node and overflow pages alike).
		ppg, ppgReused, err := t.pinW(cur.pid, held)
		if err != nil {
			return err
		}
		cnt := t.count(ppg.Data, cur.off)
		dirty := false
		for i := 0; i < cnt; i++ {
			cp := t.cChild(ppg.Data, cur.off, i)
			if cp.pid != pid {
				continue
			}
			if nw, ok := mapping[cp.off]; ok {
				t.cSetChild(ppg.Data, cur.off, i, nw)
				dirty = true
				remaining--
				if nw.off == newOffs[0] && newBack.isNil() {
					newBack = cur // parent of the new page's first node
				}
			}
		}
		next := t.cNextLeaf(ppg.Data, cur.off)
		if !ppgReused {
			t.pool.Unpin(ppg, dirty)
		}
		cur = next
	}
	cfSetBack(np.Data, newBack)

	// Free the old slots after parent fixes (mapping used old offsets).
	for _, off := range moved {
		t.freeSlot(pg.Data, off)
	}

	if ff := t.firstLeafPtr(); ff.pid == pid {
		if nw, wasMoved := mapping[ff.off]; wasMoved {
			t.setFirstLeaf(nw)
		}
	}
	return t.jpaInsertAfter(pid, np.ID)
}

// nodeIsLeafParent reports whether a nonleaf node's children are leaf
// nodes (they live in leaf pages).
func (t *CacheFirst) nodeIsLeafParent(d []byte, off int) bool {
	if t.count(d, off) == 0 {
		return false
	}
	return t.pages[t.cChild(d, off, 0).pid] == pageLeaf
}

// splitNodePage makes room in a full node page by relocating the
// second-half in-page subtrees of the page's top node to a fresh node
// page — the Figure 9(c) maneuver, factored so that the triggering node
// split retries against the freed slots. All pointers into moved nodes
// come from within the moved set or from the top node itself, except
// leaf-page back pointers and the leaf-parent sibling chain, which are
// repaired explicitly. held lists the caller's exclusively latched
// pages (split page and descent parent), reused instead of re-pinned;
// the relocation epoch is odd for the whole maneuver (see
// splitLeafPage).
func (t *CacheFirst) splitNodePage(pid uint32, held ...buffer.Page) (bool, error) {
	t.relocBegin()
	defer t.relocEnd()
	pg, reused, err := t.pinW(pid, held)
	if err != nil {
		return false, err
	}
	if !reused {
		defer t.pool.Unpin(pg, true)
	}
	d := pg.Data
	top := cfTop(d)
	cnt := t.count(d, top)

	// Entries of the top node whose children are in this page, from the
	// second half onwards, are relocation candidates.
	type cand struct {
		entry int
		child ptr
	}
	var cands []cand
	for i := 0; i < cnt; i++ {
		cp := t.cChild(d, top, i)
		if cp.pid == pid && cp.off != top {
			cands = append(cands, cand{i, cp})
		}
	}
	if len(cands) == 0 {
		// Nothing relocatable (e.g. a page that itself was created by a
		// relocation): the caller falls back to Figure 9(b) placement.
		return false, nil
	}
	move := cands[len(cands)/2:]
	if len(move) == 0 {
		move = cands
	}

	np, err := t.newPage(cfPageNode)
	if err != nil {
		return false, err
	}
	defer t.pool.Unpin(np, true)

	// Collect each subtree's nodes (in-page descendants only).
	var subtree func(off int, out *[]int)
	subtree = func(off int, out *[]int) {
		*out = append(*out, off)
		if t.nodeIsLeafParent(d, off) {
			return
		}
		c := t.count(d, off)
		for i := 0; i < c; i++ {
			cp := t.cChild(d, off, i)
			if cp.pid == pid {
				subtree(cp.off, out)
			}
		}
	}
	var movedOffs []int
	for _, m := range move {
		subtree(m.child.off, &movedOffs)
	}
	sort.Ints(movedOffs)

	mapping := make(map[int]int, len(movedOffs))
	for _, off := range movedOffs {
		noff := t.allocSlot(np.Data)
		if noff == 0 {
			return false, fmt.Errorf("core: relocation overflowed fresh page %d", np.ID)
		}
		copy(np.Data[nodeBase(noff):nodeBase(noff)+t.s*lineSize], d[nodeBase(off):nodeBase(off)+t.s*lineSize])
		mapping[off] = noff
	}
	t.mm.CopyBetween(np.Addr+lineSize, pg.Addr+lineSize, len(movedOffs)*t.s*lineSize)
	cfSetTop(np.Data, mapping[move[0].child.off])

	// Translate sibling links among moved leaf parents first, so the
	// on-disk chain never dangles into freed slots.
	for _, off := range movedOffs {
		noff := mapping[off]
		if t.nodeIsLeafParent(np.Data, noff) {
			if nx := t.cNextLeaf(np.Data, noff); nx.pid == pid {
				if m2, ok := mapping[nx.off]; ok {
					t.cSetNextLeaf(np.Data, noff, ptr{np.ID, m2})
				}
			}
		}
	}

	// Rewrite pointers: top-node entries, and in-page child pointers of
	// moved nodes. Also repair leaf-page back pointers and the
	// leaf-parent chain for moved leaf parents.
	for _, m := range move {
		t.cSetChild(d, top, m.entry, ptr{np.ID, mapping[m.child.off]})
	}
	for _, off := range movedOffs {
		noff := mapping[off]
		wasLP := t.nodeIsLeafParent(np.Data, noff)
		c := t.count(np.Data, noff)
		if !wasLP {
			for i := 0; i < c; i++ {
				cp := t.cChild(np.Data, noff, i)
				if cp.pid == pid {
					t.cSetChild(np.Data, noff, i, ptr{np.ID, mapping[cp.off]})
				}
			}
			continue
		}
		// Moved leaf parent: fix back pointers of its children's pages
		// and its predecessor's sibling link.
		old := ptr{pid, off}
		nw := ptr{np.ID, noff}
		for i := 0; i < c; i++ {
			cp := t.cChild(np.Data, noff, i)
			lp, lpReused, err := t.pinW(cp.pid, held)
			if err != nil {
				return false, err
			}
			if cfBack(lp.Data) == old {
				cfSetBack(lp.Data, nw)
				if !lpReused {
					t.pool.Unpin(lp, true)
				}
			} else if !lpReused {
				t.pool.Unpin(lp, false)
			}
		}
		if err := t.fixLeafParentChainLink(old, nw, mapping, np, held); err != nil {
			return false, err
		}
	}

	for _, off := range movedOffs {
		t.freeSlot(d, off)
	}
	return true, nil
}

// fixLeafParentChainLink repoints the sibling link that targeted a
// moved leaf parent. The predecessor is found from the moved node's
// first child: the leaf page holding it knows (via its back pointer or
// by walking from the tree root) a nearby chain position. We walk the
// leaf-parent chain from the parent of the leaf page's first node until
// we find the link to fix; predecessors of moved nodes are at most a
// few links away.
func (t *CacheFirst) fixLeafParentChainLink(old, nw ptr, mapping map[int]int, np buffer.Page, held []buffer.Page) error {
	oldPID, newPID := old.pid, np.ID
	// pin fetches a chain page, reusing the caller's exclusively held
	// pages in concurrent mode (latches are not reentrant). The chain
	// can pass through the new page, the split page, or the descent
	// parent still latched higher up the stack.
	pin := func(pid uint32) (buffer.Page, bool, error) {
		if t.conc && pid == np.ID {
			return np, true, nil
		}
		return t.pinW(pid, held)
	}
	// Locate a chain position at or before old: the back pointer of
	// old's first child's page.
	var firstChild ptr
	if t.conc {
		firstChild = t.cChild(np.Data, nw.off, 0) // nw lives in np
	} else {
		fpg, err := t.pool.Get(nw.pid)
		if err != nil {
			return err
		}
		firstChild = t.cChild(fpg.Data, nw.off, 0)
		t.pool.Unpin(fpg, false)
	}
	lpg, err := t.pool.Get(firstChild.pid)
	if err != nil {
		return err
	}
	cur := cfBack(lpg.Data)
	t.pool.Unpin(lpg, false)
	// Normalize a stale back pointer into the moved set.
	if cur.pid == oldPID {
		if noff, ok := mapping[cur.off]; ok {
			cur = ptr{newPID, noff}
		}
	}
	if cur == nw || cur == old {
		// old was the back parent itself: nothing points at it from
		// before in a way we can reach; the chain link to old is owned
		// by its predecessor, found by scanning from the tree's
		// leftmost leaf parent only if needed. Walk forward instead.
		cur = t.firstLeafParent(append(held, np)...)
	}
	for steps := 0; !cur.isNil() && steps < 1<<20; steps++ {
		ppg, reused, err := pin(cur.pid)
		if err != nil {
			return err
		}
		nx := t.cNextLeaf(ppg.Data, cur.off)
		if nx == old {
			t.cSetNextLeaf(ppg.Data, cur.off, nw)
			if !reused {
				t.pool.Unpin(ppg, true)
			}
			return nil
		}
		if !reused {
			t.pool.Unpin(ppg, false)
		}
		// Follow, translating links into the moved set.
		if nx.pid == oldPID {
			if noff, ok := mapping[nx.off]; ok {
				nx = ptr{newPID, noff}
			}
		}
		if nx.isNil() {
			break
		}
		cur = nx
	}
	// No link targeted old (it may be the chain head or already
	// repaired via the mapping); nothing to fix.
	return nil
}

// firstLeafParent descends leftmost from the root to node level 1,
// reusing any of the caller's held pages it encounters.
func (t *CacheFirst) firstLeafParent(held ...buffer.Page) ptr {
	root, height := t.rootPtrHeight()
	if height < 2 {
		return nilPtr
	}
	cur := root
	for lvl := height - 1; lvl > 1; lvl-- {
		var pg buffer.Page
		reused := false
		if t.conc {
			for _, h := range held {
				if h.Valid() && h.ID == cur.pid {
					pg, reused = h, true
					break
				}
			}
		}
		if !reused {
			var err error
			pg, err = t.pool.Get(cur.pid)
			if err != nil {
				return nilPtr
			}
		}
		next := t.cChild(pg.Data, cur.off, 0)
		if !reused {
			t.pool.Unpin(pg, false)
		}
		cur = next
	}
	return cur
}
