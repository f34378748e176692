package bptree

import (
	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/latch"
)

// Concurrent insertion: pessimistic exclusive-latch crabbing.
//
// The writer descends from the root taking exclusive latches top-down.
// After latching a child it releases every held ancestor if the child
// is "safe" — it has room, so no split can propagate above it. The
// latches still held when the leaf is reached are therefore exactly
// the (contiguous) chain of full ancestors directly above the leaf:
// when the leaf splits, each separator install either fits in the next
// held page or splits a page already held, so the cascade never
// acquires a latch upward. All blocking acquisitions follow the global
// order (levels top-down, left-to-right within a level; a lower level
// is fully released before its parent's own split touches a same-level
// sibling), which keeps the wait graph acyclic — see DESIGN.md §11.

// heldPage is an exclusively latched ancestor retained by a crabbing
// descent, with the dirtiness it accumulated (separator lowering).
type heldPage struct {
	pg    buffer.Page
	dirty bool
}

// insertConc is Insert under the per-page latch protocol. An attempt
// restarts only when the root it latched is no longer the root (a
// concurrent root grow won the race).
func (t *Tree) insertConc(k idx.Key, tid idx.TupleID) error {
	var bo latch.Backoff
	for {
		root, height := t.rootHeight()
		if root == 0 {
			if err := t.createRootConc(); err != nil {
				return err
			}
			continue
		}
		ok, err := t.insertAttempt(root, height, k, tid)
		if err != nil || ok {
			return err
		}
		bo.Pause()
	}
}

// createRootConc creates the first (empty leaf) root; the mutex only
// serializes this one transition — the page is invisible until the
// meta store publishes it.
func (t *Tree) createRootConc() error {
	t.growMu.Lock()
	defer t.growMu.Unlock()
	if root, _ := t.rootHeight(); root != 0 {
		return nil
	}
	pg, err := t.newPageWrite()
	if err != nil {
		return err
	}
	setType(pg.Data, pageLeaf)
	t.pool.Unpin(pg, true)
	t.firstLeaf.Store(pg.ID)
	t.meta.Store(pg.ID, 0, 1)
	return nil
}

// insertAttempt runs one crabbing descent from the given root
// snapshot. ok=false (with nil error) means the snapshot went stale
// before the root latch landed and the caller should retry.
func (t *Tree) insertAttempt(root uint32, height int, k idx.Key, tid idx.TupleID) (bool, error) {
	pg, err := t.pool.GetX(root)
	if err != nil {
		return false, err
	}
	if r, h := t.rootHeight(); r != root || h != height {
		t.pool.Unpin(pg, false)
		return false, nil
	}

	var held []heldPage // unsafe ancestors, outermost first
	releaseHeld := func() {
		for i := len(held) - 1; i >= 0; i-- {
			t.pool.Unpin(held[i].pg, held[i].dirty)
		}
		held = held[:0]
	}
	dirty := false
	fail := func(err error) (bool, error) {
		t.pool.Unpin(pg, dirty)
		releaseHeld()
		return false, err
	}

	// Crab down: latch the child, then drop every held ancestor once
	// the child cannot split.
	for lvl := height - 1; lvl > 0; lvl-- {
		t.touchHeader(pg)
		slot, _ := t.searchPage(pg, k, false)
		if slot < 0 {
			// k is below every separator: descend leftmost, lowering
			// its separator so separators remain true lower bounds.
			slot = 0
			t.lowerMinKey(pg, k)
			dirty = true
		}
		child := t.readPtr(pg, slot)
		cpg, err := t.pool.GetX(child)
		if err != nil {
			return fail(err)
		}
		if pCount(cpg.Data) < t.cap {
			t.pool.Unpin(pg, dirty)
			releaseHeld()
		} else {
			held = append(held, heldPage{pg, dirty})
		}
		pg, dirty = cpg, false
	}

	// Leaf insert.
	t.touchHeader(pg)
	slot, _ := t.searchPage(pg, k, false)
	if pCount(pg.Data) < t.cap {
		if err := t.insertAt(pg, slot+1, k, tid); err != nil {
			dirty = true
			return fail(err)
		}
		t.pool.Unpin(pg, true)
		releaseHeld()
		return true, nil
	}

	// Split cascade through the held ancestor chain.
	insKey, insPtr := k, uint32(tid)
	for {
		sep, newPID, err := t.splitPage(pg)
		if err != nil {
			dirty = true
			return fail(err)
		}
		if insKey >= sep {
			// The new right page is unreachable while pg's latch is
			// held, so this re-latch cannot block on another writer.
			np, err2 := t.pool.GetX(newPID)
			if err2 != nil {
				dirty = true
				return fail(err2)
			}
			s, _ := t.searchPage(np, insKey, false)
			err2 = t.insertAt(np, s+1, insKey, insPtr)
			t.pool.Unpin(np, true)
			if err2 != nil {
				dirty = true
				return fail(err2)
			}
		} else {
			s, _ := t.searchPage(pg, insKey, false)
			if err := t.insertAt(pg, s+1, insKey, insPtr); err != nil {
				dirty = true
				return fail(err)
			}
		}

		if len(held) == 0 {
			// pg is the root (still current: its latch was held since
			// the snapshot check). Grow while holding it so no other
			// writer can race the meta update.
			oldMin := t.key(pg.Data, 0)
			rootPg, err := t.newPageWrite()
			if err != nil {
				dirty = true
				return fail(err)
			}
			d := rootPg.Data
			setType(d, pageInternal)
			setLevel(d, byte(height))
			setCount(d, 2)
			t.setKey(d, 0, oldMin)
			t.setPtr(d, 0, pg.ID)
			t.setKey(d, 1, sep)
			t.setPtr(d, 1, newPID)
			t.fillMicro(d, 0)
			t.pool.Unpin(rootPg, true)
			t.meta.Store(rootPg.ID, 0, height+1)
			t.pool.Unpin(pg, true)
			return true, nil
		}

		// Release the split page before working on its parent so no
		// lower-level latch is held while the parent's split latches a
		// same-level sibling (keeps acquisitions inside the global
		// order).
		t.pool.Unpin(pg, true)
		top := held[len(held)-1]
		held = held[:len(held)-1]
		pg, dirty = top.pg, top.dirty
		insKey, insPtr = sep, newPID
		t.touchHeader(pg)
		s, _ := t.searchPage(pg, insKey, false)
		if pCount(pg.Data) < t.cap {
			if err := t.insertAt(pg, s+1, insKey, insPtr); err != nil {
				dirty = true
				return fail(err)
			}
			t.pool.Unpin(pg, true)
			releaseHeld()
			return true, nil
		}
		// The popped ancestor is itself full: loop to split it too.
	}
}
