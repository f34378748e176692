package core

// Optimistic (latch-free) point-lookup descent for the cache-first
// variant. This composes BOTH validation mechanisms (DESIGN.md §11.6):
// the relocation epoch — sampled even before the descent and re-checked
// at every page transition, exactly like the one-latch protocol it
// replaces — and per-page latch versions, which replace the shared
// latch itself: each page is resolved with buffer.ReadOpt, searched
// with plain loads, and validated with buffer.ValidateOpt before any
// ⟨pid, off⟩ pointer or tuple ID derived from its bytes is trusted.
// The epoch catches cross-page node relocations as a unit; the page
// version catches the individual in-place edits. Restarts are bounded;
// the one-latch lookup remains the fallback.

import (
	"repro/internal/buffer"
	"repro/internal/idx"
)

// searchOpt runs the optimistic point lookup. handled=false means the
// optimistic path is unavailable, met a non-resident page or exhausted
// its restart budget, and the caller must run the latched descent.
func (t *CacheFirst) searchOpt(k idx.Key) (tid idx.TupleID, found, handled bool) {
	if !t.opt || !t.mm.Concurrent() {
		return 0, false, false
	}
	return t.pool.SearchOpt(k, t.searchOptAttempt)
}

// searchOptAttempt is one latch-free descent attempt; results are only
// meaningful when st is buffer.OptDone.
func (t *CacheFirst) searchOptAttempt(k idx.Key) (tid idx.TupleID, found bool, st buffer.OptStatus) {
	// A torn read can yield wild node offsets before validation gets to
	// reject them; convert the resulting bounds panic into a restart.
	defer func() {
		if recover() != nil {
			tid, found, st = 0, false, buffer.OptRetry
		}
	}()
	e := t.reloc.Load()
	if e&1 != 0 {
		// A relocation is in flight; let the restart loop back off.
		return 0, false, buffer.OptRetry
	}
	cur, pg, _, st := t.leafNodeForOpt(k, true, e)
	if st != buffer.OptDone {
		return 0, false, st
	}
	// Forward walk over the leaf-node chain for the first entry == k.
	// pg is the view cur was read from — the leaf's parent, then each
	// leaf page — validated once cur's own page has been sampled. The
	// per-page hop bound mirrors the disk-first walk: a torn chain could
	// cycle without ever faulting into the recover above.
	hops := 0
	for !cur.isNil() {
		if cur.pid != pg.ID {
			npg, okr := t.readOptPage(cur.pid, e)
			if pg.Valid() && !t.pool.ValidateOpt(pg) {
				return 0, false, buffer.OptRetry
			}
			if !okr {
				return 0, false, npg.Miss()
			}
			pg, hops = npg, 0
		} else if hops++; hops > t.pageLines {
			return 0, false, buffer.OptRetry
		}
		prefetchNode(t.mm, buffer.Page{Data: pg.Data}, cur.off, t.s)
		slot, _ := t.search(buffer.Page{Data: pg.Data}, cur.off, k, true)
		slot = t.nextOccupied(pg.Data, cur.off, slot+1)
		if slot >= 0 {
			key := t.key(pg.Data, cur.off, slot)
			tid := t.ptrAt(pg.Data, cur.off, slot)
			if !t.pool.ValidateOpt(pg) {
				return 0, false, buffer.OptRetry
			}
			return tid, key == k, buffer.OptDone
		}
		next := t.cNextLeaf(pg.Data, cur.off)
		if !t.pool.ValidateOpt(pg) {
			return 0, false, buffer.OptRetry
		}
		cur = next
	}
	return 0, false, buffer.OptDone
}

// leafNodeForOpt is the latch-free, version-coupled descent to the leaf
// node for k of lookups and leaf-only writers — pagetree.LeafForOpt over
// ⟨pid, off⟩ nodes, under the even relocation epoch e. via is the
// unvalidated view of the page holding the leaf's parent node, checked
// by the caller once it has sampled or latched the leaf's page (the
// zero view when the root is the leaf; leaf nil on an empty tree). The
// caller recovers a torn offset's bounds panic as a retry.
func (t *CacheFirst) leafNodeForOpt(k idx.Key, lt bool, e uint64) (leaf ptr, via buffer.OptPage, below bool, st buffer.OptStatus) {
	root, height := t.rootPtrHeight()
	if height <= 1 {
		return root, buffer.OptPage{}, false, buffer.OptDone
	}
	pg, okr := t.readOptPage(root.pid, e)
	if !okr {
		return nilPtr, buffer.OptPage{}, false, pg.Miss()
	}
	if r, h := t.rootPtrHeight(); r != root || h != height {
		return nilPtr, buffer.OptPage{}, false, buffer.OptRetry
	}
	cur := root
	for lvl := height - 1; ; lvl-- {
		prefetchNode(t.mm, buffer.Page{Data: pg.Data}, cur.off, t.s)
		slot, _ := t.search(buffer.Page{Data: pg.Data}, cur.off, k, lt)
		if slot < 0 {
			slot, below = 0, true
		}
		child := t.cChild(pg.Data, cur.off, slot)
		if lvl == 1 {
			if child.isNil() {
				// No consistent leaf parent has a nil child: a torn read.
				return nilPtr, buffer.OptPage{}, false, buffer.OptRetry
			}
			return child, pg, below, buffer.OptDone
		}
		npg := pg
		if child.pid != pg.ID {
			npg, okr = t.readOptPage(child.pid, e)
		}
		// Validate before following the ⟨pid, off⟩ pair anywhere — even
		// within the same page, a torn read could fabricate the offset.
		if !t.pool.ValidateOpt(pg) || child.isNil() {
			return nilPtr, buffer.OptPage{}, false, buffer.OptRetry
		}
		if !okr {
			return nilPtr, buffer.OptPage{}, false, npg.Miss()
		}
		pg, cur = npg, child
	}
}

// readOptPage resolves pid optimistically and re-checks the relocation
// epoch after the snapshot, mirroring the latched protocol's check
// after every cross-page pin. Like ReadOpt, a failure returns a view
// whose Miss says why (a moved epoch is a retry).
func (t *CacheFirst) readOptPage(pid uint32, e uint64) (buffer.OptPage, bool) {
	pg, ok := t.pool.ReadOpt(pid)
	if !ok {
		return pg, false
	}
	if t.reloc.Load() != e {
		return buffer.OptPage{}, false
	}
	return pg, true
}
