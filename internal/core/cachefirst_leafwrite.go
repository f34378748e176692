package core

import (
	"repro/internal/buffer"
	"repro/internal/idx"
)

// Leaf-only writes for the cache-first tree (DESIGN.md §11.6): the
// protocol of pagetree.LatchLeafOpt over ⟨pid, off⟩ nodes. A write that
// changes one leaf node takes neither the writer mutex nor a latch
// above the leaf: it descends like a lookup (leafNodeForOpt), latches
// the node's page, and re-checks — now that nothing can change that
// page — the relocation epoch (the node was not moved, nor its slot
// reused) and the parent's view (the node was not split, so it still
// covers k). Everything else goes to the wMu path, still the only place
// where nodes are created, moved or split.

// latchLeafOpt returns the leaf node for k with its page exclusively
// latched and pinned (the caller unpins); insert as in
// pagetree.LatchLeafOpt. ok=false sends the caller to the wMu path.
func (t *CacheFirst) latchLeafOpt(k idx.Key, insert bool) (buffer.Page, ptr, bool) {
	e := t.reloc.Load()
	if !t.opt || !t.mm.Concurrent() || e&1 != 0 {
		return buffer.Page{}, nilPtr, false
	}
	leaf, via, ok := t.writeLeafNodeForOpt(k, insert, e)
	if !ok {
		return buffer.Page{}, nilPtr, false
	}
	pg, ok := t.pool.GetXOpt(leaf.pid, via)
	if ok && t.reloc.Load() != e {
		t.pool.Unpin(pg, false)
		ok = false
	}
	return pg, leaf, ok
}

// writeLeafNodeForOpt is a writer's leafNodeForOpt: one attempt, a torn
// read's panic recovered before anything is latched.
func (t *CacheFirst) writeLeafNodeForOpt(k idx.Key, insert bool, e uint64) (leaf ptr, via buffer.OptPage, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	leaf, via, below, st := t.leafNodeForOpt(k, !insert, e)
	return leaf, via, st == buffer.OptDone && via.Valid() && !(insert && below)
}

// insertLeafOpt is the leaf-only Insert; false hands it to the wMu path
// with nothing changed.
func (t *CacheFirst) insertLeafOpt(k idx.Key, tid idx.TupleID) bool {
	pg, leaf, ok := t.latchLeafOpt(k, true)
	if !ok {
		return false
	}
	if t.count(pg.Data, leaf.off) >= t.splitAt(pg.Data) {
		t.pool.Unpin(pg, false)
		return false
	}
	t.visitNode(pg, leaf.off)
	slot, _ := t.search(pg, leaf.off, k, false)
	t.insert(pg, leaf.off, slot, k, tid)
	t.pool.Unpin(pg, true)
	t.pool.Latches().OptWrite()
	return true
}

// deleteLeafOpt is the leaf-only Delete. done=false hands the delete to
// the wMu path: the run may start in another page, and walking on would
// need the epoch re-checked under every further latch.
func (t *CacheFirst) deleteLeafOpt(k idx.Key) (found, done bool) {
	pg, cur, ok := t.latchLeafOpt(k, false)
	if !ok {
		return false, false
	}
	found, decided, next := t.deleteInPage(pg, cur, k)
	if !decided {
		t.pool.Unpin(pg, false)
		if !next.isNil() {
			return false, false
		}
	}
	t.pool.Latches().OptWrite()
	return found, true
}
