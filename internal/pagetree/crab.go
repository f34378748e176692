package pagetree

import (
	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/latch"
)

// Concurrent insertion, structural path: pessimistic exclusive-latch
// crabbing, for the inserts the leaf-only write (opt.go) declines.
//
// The writer descends from the root taking exclusive latches top-down.
// After latching a child it releases every held ancestor if the child
// is safe (Layout.Safe) — it has room, so no split can propagate above
// it. The latches still held when the leaf is reached are therefore
// exactly the (contiguous) chain of unsafe ancestors directly above the
// leaf: when the leaf splits, each separator install either fits in the
// next held page or splits a page already held, so the cascade never
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
	t.pool.Latches().OptWriteFallback()
	var bo latch.Backoff
	for {
		root, height := t.RootHeight()
		if root == 0 {
			if err := t.createRoot(); err != nil {
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

// insertAttempt runs one crabbing descent from the given root
// snapshot. ok=false (with nil error) means the snapshot went stale
// before the root latch landed and the caller should retry.
func (t *Tree) insertAttempt(root uint32, height int, k idx.Key, tid idx.TupleID) (bool, error) {
	pg, err := t.pool.GetX(root)
	if err != nil {
		return false, err
	}
	if r, h := t.RootHeight(); r != root || h != height {
		t.pool.Unpin(pg, false)
		return false, nil
	}

	var held []heldPage // unsafe ancestors, outermost first
	dirty := false
	// release unpins pg and then the held chain, innermost first.
	release := func() {
		t.pool.Unpin(pg, dirty)
		for i := len(held) - 1; i >= 0; i-- {
			t.pool.Unpin(held[i].pg, held[i].dirty)
		}
		held = held[:0]
	}
	finish := func(err error) (bool, error) {
		release()
		return err == nil, err
	}

	// Crab down: latch the child, then drop every held ancestor once
	// the child cannot split.
	for lvl := height - 1; lvl > 0; lvl-- {
		t.lay.TouchHeader(pg)
		child, lowered := t.lay.ChildForInsert(pg, k)
		dirty = dirty || lowered
		cpg, err := t.pool.GetX(child)
		if err != nil {
			return finish(err)
		}
		if t.lay.Safe(cpg.Data) {
			release()
		} else {
			held = append(held, heldPage{pg, dirty})
		}
		pg, dirty = cpg, false
	}

	// Insert at the leaf, then install each split's separator one held
	// ancestor up until a page absorbs it.
	insKey, insPtr := k, uint32(tid)
	for {
		t.lay.TouchHeader(pg)
		ok, err := t.lay.InsertOnePage(pg, insKey, insPtr)
		dirty = true
		if err != nil || ok {
			return finish(err)
		}
		sep, newPID, err := t.splitInsert(pg, insKey, insPtr)
		if err != nil {
			return finish(err)
		}
		if len(held) == 0 {
			// pg is the root (still current: its latch was held since
			// the snapshot check). Grow while holding it.
			return finish(t.growRoot(height, t.lay.MinKey(pg.Data), pg.ID, sep, newPID))
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
	}
}
