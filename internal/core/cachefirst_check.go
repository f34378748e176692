package core

import (
	"fmt"

	"repro/internal/idx"
)

// CheckInvariants implements idx.Index for CacheFirst. It validates
// node ordering and bounds, node-kind/page-kind consistency, the leaf
// sibling chain, leaf-page back pointers, the leaf-parent sibling
// chain, per-page slot accounting (every live slot is referenced by
// exactly one tree edge), and the external jump-pointer array.
func (t *CacheFirst) CheckInvariants() error {
	root, height := t.rootPtrHeight()
	if root.isNil() {
		return nil
	}
	st := &cfCheckState{
		refs: make(map[ptr]int),
	}
	if err := t.checkNode(root, height-1, nil, nil, st); err != nil {
		return err
	}

	// Leaf chain matches in-order leaves.
	cur := t.firstLeafPtr()
	var last idx.Key
	have := false
	for i := 0; !cur.isNil(); i++ {
		if i >= len(st.leaves) || st.leaves[i] != cur {
			return fmt.Errorf("cachefirst: leaf chain diverges at %d (%v)", i, cur)
		}
		pg, err := t.pool.Get(cur.pid)
		if err != nil {
			return err
		}
		for j := t.nextOccupied(pg.Data, cur.off, 0); j >= 0; j = t.nextOccupied(pg.Data, cur.off, j+1) {
			k := t.key(pg.Data, cur.off, j)
			if have && k < last {
				t.pool.Unpin(pg, false)
				return fmt.Errorf("cachefirst: keys regress across leaf chain at %v", cur)
			}
			last, have = k, true
		}
		next := t.cNextLeaf(pg.Data, cur.off)
		t.pool.Unpin(pg, false)
		cur = next
		if i > len(st.leaves) {
			return fmt.Errorf("cachefirst: leaf chain longer than tree")
		}
	}
	if chainLen := len(st.leaves); chainLen > 0 {
		walked := 0
		for c := t.firstLeafPtr(); !c.isNil(); {
			walked++
			pg, err := t.pool.Get(c.pid)
			if err != nil {
				return err
			}
			c = t.cNextLeaf(pg.Data, c.off)
			t.pool.Unpin(pg, false)
			if walked > chainLen {
				return fmt.Errorf("cachefirst: leaf chain cycles")
			}
		}
		if walked != chainLen {
			return fmt.Errorf("cachefirst: leaf chain has %d nodes, tree has %d", walked, chainLen)
		}
	}

	// Leaf-parent chain matches in-order leaf parents.
	for i := 0; i+1 < len(st.leafParents); i++ {
		pg, err := t.pool.Get(st.leafParents[i].pid)
		if err != nil {
			return err
		}
		nx := t.cNextLeaf(pg.Data, st.leafParents[i].off)
		t.pool.Unpin(pg, false)
		if nx != st.leafParents[i+1] {
			return fmt.Errorf("cachefirst: leaf-parent chain broken at %d: %v -> %v, want %v",
				i, st.leafParents[i], nx, st.leafParents[i+1])
		}
	}

	// Back pointers: each leaf page's back pointer names the parent of
	// its first (in key order) leaf node.
	firstParent := make(map[uint32]ptr)
	for i, lp := range st.leaves {
		if _, ok := firstParent[lp.pid]; !ok {
			firstParent[lp.pid] = st.leafParentOf[i]
		}
	}
	for pid, want := range firstParent {
		pg, err := t.pool.Get(pid)
		if err != nil {
			return err
		}
		got := cfBack(pg.Data)
		t.pool.Unpin(pg, false)
		if got != want {
			return fmt.Errorf("cachefirst: leaf page %d back pointer %v, want %v", pid, got, want)
		}
	}

	// Slot accounting: every page's live slots are exactly the nodes
	// the tree references (once each).
	perPage := make(map[uint32]map[int]bool)
	for p, n := range st.refs {
		if n != 1 {
			return fmt.Errorf("cachefirst: node %v referenced %d times", p, n)
		}
		if perPage[p.pid] == nil {
			perPage[p.pid] = make(map[int]bool)
		}
		perPage[p.pid][p.off] = true
	}
	for pid, want := range perPage {
		pg, err := t.pool.Get(pid)
		if err != nil {
			return err
		}
		live := t.pageSlots(pg.Data)
		t.pool.Unpin(pg, false)
		if len(live) != len(want) {
			return fmt.Errorf("cachefirst: page %d has %d live slots, tree references %d", pid, len(live), len(want))
		}
		for _, off := range live {
			if !want[off] {
				return fmt.Errorf("cachefirst: page %d slot %d is live but unreferenced", pid, off)
			}
		}
		t.pagesMu.Lock()
		_, registered := t.pages[pid]
		t.pagesMu.Unlock()
		if !registered {
			return fmt.Errorf("cachefirst: page %d not in the space map", pid)
		}
	}

	// The external JPA lists the leaf pages in first-use order.
	var wantPages []uint32
	seen := make(map[uint32]bool)
	for _, lp := range st.leaves {
		if !seen[lp.pid] {
			seen[lp.pid] = true
			wantPages = append(wantPages, lp.pid)
		}
	}
	t.jpaMu.RLock()
	got := t.jpa.All()
	t.jpaMu.RUnlock()
	if len(got) != len(wantPages) {
		return fmt.Errorf("cachefirst: JPA has %d pages, tree uses %d", len(got), len(wantPages))
	}
	for i := range got {
		if got[i] != wantPages[i] {
			return fmt.Errorf("cachefirst: JPA order diverges at %d: %d vs %d", i, got[i], wantPages[i])
		}
	}
	return nil
}

type cfCheckState struct {
	leaves       []ptr
	leafParentOf []ptr // parallel to leaves
	leafParents  []ptr
	refs         map[ptr]int
}

func (t *CacheFirst) checkNode(at ptr, lvl int, lo, hi *idx.Key, st *cfCheckState) error {
	st.refs[at]++
	pg, err := t.pool.Get(at.pid)
	if err != nil {
		return err
	}
	d := pg.Data
	kind := cfKind(d)
	cnt := t.count(d, at.off)
	release := func() { t.pool.Unpin(pg, false) }

	if lvl == 0 {
		if kind != pageLeaf {
			release()
			return fmt.Errorf("cachefirst: leaf node %v in page kind %d", at, kind)
		}
		if cnt > t.capL {
			release()
			return fmt.Errorf("cachefirst: leaf %v overflows: %d", at, cnt)
		}
	} else {
		if kind != cfPageNode && kind != cfPageOverflow {
			release()
			return fmt.Errorf("cachefirst: nonleaf node %v in page kind %d", at, kind)
		}
		if kind == cfPageOverflow && lvl != 1 {
			release()
			return fmt.Errorf("cachefirst: non-leaf-parent node %v in an overflow page", at)
		}
		if cnt < 1 || cnt > t.capN {
			release()
			return fmt.Errorf("cachefirst: nonleaf %v count %d out of range", at, cnt)
		}
	}
	if lvl == 0 && t.gappedPage(d) {
		// Gapped leaf: count is occupancy; live keys must be sorted
		// among themselves across the gaps.
		occ := 0
		var prev idx.Key
		for j := 0; j < t.capL; j++ {
			k := t.key(d, at.off, j)
			if k == gapSentinel {
				continue
			}
			if occ > 0 && k < prev {
				release()
				return fmt.Errorf("cachefirst: gapped leaf %v unsorted at %d", at, j)
			}
			occ++
			prev = k
			if lo != nil && k < *lo {
				release()
				return fmt.Errorf("cachefirst: node %v key %d below bound %d", at, k, *lo)
			}
			if hi != nil && k > *hi {
				release()
				return fmt.Errorf("cachefirst: node %v key %d above bound %d", at, k, *hi)
			}
		}
		if occ != cnt {
			release()
			return fmt.Errorf("cachefirst: gapped leaf %v occupancy %d != count %d", at, occ, cnt)
		}
	} else {
		for j := 0; j < cnt; j++ {
			k := t.key(d, at.off, j)
			if j > 0 && k < t.key(d, at.off, j-1) {
				release()
				return fmt.Errorf("cachefirst: node %v unsorted at %d", at, j)
			}
			if lo != nil && k < *lo {
				release()
				return fmt.Errorf("cachefirst: node %v key %d below bound %d", at, k, *lo)
			}
			if hi != nil && k > *hi {
				release()
				return fmt.Errorf("cachefirst: node %v key %d above bound %d", at, k, *hi)
			}
		}
	}
	if lvl == 0 {
		st.leaves = append(st.leaves, at)
		st.leafParentOf = append(st.leafParentOf, nilPtr) // patched by parent
		release()
		return nil
	}
	if lvl == 1 {
		st.leafParents = append(st.leafParents, at)
	}
	type childRef struct {
		at     ptr
		lo, hi *idx.Key
	}
	children := make([]childRef, cnt)
	keys := make([]idx.Key, cnt)
	for j := 0; j < cnt; j++ {
		keys[j] = t.key(d, at.off, j)
	}
	for j := 0; j < cnt; j++ {
		lob := &keys[j]
		if j == 0 {
			lob = lo
		}
		var hib *idx.Key
		if j+1 < cnt {
			hib = &keys[j+1]
		} else {
			hib = hi
		}
		children[j] = childRef{t.cChild(d, at.off, j), lob, hib}
	}
	release()
	for _, c := range children {
		if c.at.isNil() {
			return fmt.Errorf("cachefirst: node %v has nil child", at)
		}
		before := len(st.leaves)
		if err := t.checkNode(c.at, lvl-1, c.lo, c.hi, st); err != nil {
			return err
		}
		if lvl == 1 {
			for i := before; i < len(st.leaves); i++ {
				st.leafParentOf[i] = at
			}
		}
	}
	return nil
}

var _ idx.Index = (*CacheFirst)(nil)
