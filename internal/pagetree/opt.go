package pagetree

import (
	"repro/internal/buffer"
	"repro/internal/idx"
)

// The latch-free descent and the leaf-only write built on it
// (DESIGN.md §11.6). Writers descend like lookups and latch one page,
// the leaf. What allows it is version coupling: the view a page ID was
// read from is validated only after the page behind that ID has been
// sampled (lookups) or latched (writers). A page splits under its
// exclusive latch, which moves its version, so an unbroken chain of such
// validations means no page of the path split between the moment the
// descent chose it and the moment the next level was fixed — the write
// cannot land in a left half that no longer covers the key.

// Opt reports whether the latch-free protocol is live: a latched pool,
// a build without the race detector, and a serving tree — the simulated
// experiments never take these paths, so their tables cannot move.
func (t *Tree) Opt() bool { return t.pool.OptSupported() && t.mm.Concurrent() }

// LeafForOpt descends latch-free to the leaf page for k (see
// Layout.ChildFor for lt). It returns the leaf's ID and via, the still
// unvalidated view of the page that ID was read from: the caller
// samples or latches the leaf and only then checks via with ValidateOpt
// (the zero view when the root is the leaf; leaf 0 on an empty tree).
// below: k fell below a leftmost separator on the way down. Results
// count only when st is buffer.OptDone. A torn count or offset can send
// the layout's search past the page before validation rejects it: the
// caller recovers the bounds panic as a retry.
func (t *Tree) LeafForOpt(k idx.Key, lt bool) (leaf uint32, via buffer.OptPage, below bool, st buffer.OptStatus) {
	root, height := t.RootHeight()
	leaf = root
	for lvl := height - 1; lvl > 0; lvl-- {
		pg, ok := t.pool.ReadOpt(leaf)
		if via.Valid() && !t.pool.ValidateOpt(via) {
			return 0, buffer.OptPage{}, false, buffer.OptRetry
		}
		if !ok {
			return 0, buffer.OptPage{}, false, pg.Miss()
		}
		// No view vouches for the root: it was the root when its version
		// was sampled if the pair still reads the same.
		if lvl == height-1 {
			if r, h := t.RootHeight(); r != root || h != height {
				return 0, buffer.OptPage{}, false, buffer.OptRetry
			}
		}
		child, b := t.lay.ChildFor(buffer.Page{ID: pg.ID, Data: pg.Data}, k, lt)
		if child == 0 {
			// No consistent nonleaf page has a nil child: a torn read.
			return 0, buffer.OptPage{}, false, buffer.OptRetry
		}
		leaf, via, below = child, pg, below || b
	}
	return leaf, via, below, buffer.OptDone
}

// LatchLeafOpt is the first half of a leaf-only write: descend
// latch-free, latch the leaf page for k exclusively, validate the view
// of its parent once the latch has landed (buffer.GetXOpt): the page
// returned covers k and cannot change until the caller unpins it. An
// insert descends with <= comparisons and is refused when k falls below
// a leftmost separator, which only the structural path may lower; a
// delete descends with <. ok=false sends the caller to the structural
// path (one-leaf tree, non-resident page, crossed descent, Opt off).
func (t *Tree) LatchLeafOpt(k idx.Key, insert bool) (buffer.Page, bool) {
	if !t.Opt() {
		return buffer.Page{}, false
	}
	leaf, via, ok := t.writeLeafForOpt(k, insert)
	if !ok {
		return buffer.Page{}, false
	}
	return t.pool.GetXOpt(leaf, via)
}

// writeLeafForOpt is a writer's LeafForOpt: one attempt, a torn read's
// panic recovered before anything is latched.
func (t *Tree) writeLeafForOpt(k idx.Key, insert bool) (leaf uint32, via buffer.OptPage, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	leaf, via, below, st := t.LeafForOpt(k, !insert)
	return leaf, via, st == buffer.OptDone && via.Valid() && !(insert && below)
}

// insertLeafOpt is the leaf-only Insert: done=false (the page untouched
// unless err is set) hands the insert to crabbing.
func (t *Tree) insertLeafOpt(k idx.Key, tid idx.TupleID) (done bool, err error) {
	pg, ok := t.LatchLeafOpt(k, true)
	if !ok {
		return false, nil
	}
	if !t.lay.Safe(pg.Data) {
		t.pool.Unpin(pg, false)
		return false, nil
	}
	t.lay.TouchHeader(pg)
	// Safe promised room: only a damaged page refuses.
	done, err = t.lay.InsertOnePage(pg, k, uint32(tid))
	t.pool.Unpin(pg, true)
	if done {
		t.pool.Latches().OptWrite()
	}
	return done, err
}
