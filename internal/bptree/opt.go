package bptree

// Optimistic (latch-free) point-lookup descent, mirroring the
// disk-first variant's protocol (DESIGN.md §11.6): resolve each page
// with buffer.ReadOpt, search its bytes with plain loads (searchPage,
// whichever the layout), and validate the page's latch version before
// trusting any pointer derived from them. Restarts are bounded
// (buffer.SearchOpt); the latched findFirst path remains the fallback.

import (
	"repro/internal/buffer"
	"repro/internal/idx"
)

// searchOpt runs the optimistic point lookup. handled=false means the
// optimistic path is unavailable, met a non-resident page or exhausted
// its restart budget, and the caller must run the latched descent.
func (t *Tree) searchOpt(k idx.Key) (tid idx.TupleID, found, handled bool) {
	if !t.opt || !t.mm.Concurrent() {
		return 0, false, false
	}
	return t.pool.SearchOpt(k, t.searchOptAttempt)
}

// searchOptAttempt is one latch-free descent attempt; results are only
// meaningful when st is buffer.OptDone.
func (t *Tree) searchOptAttempt(k idx.Key) (tid idx.TupleID, found bool, st buffer.OptStatus) {
	// A torn count can send the in-page search past the page before
	// validation rejects it; turn the bounds panic into a restart.
	defer func() {
		if recover() != nil {
			tid, found, st = 0, false, buffer.OptRetry
		}
	}()
	root, height := t.RootHeight()
	if root == 0 {
		return 0, false, buffer.OptDone
	}
	pid := root
	for lvl := height - 1; lvl > 0; lvl-- {
		pg, okr := t.pool.ReadOpt(pid)
		if !okr {
			return 0, false, pg.Miss()
		}
		slot, _ := t.searchPage(buffer.Page{Data: pg.Data}, k, true)
		if slot < 0 {
			slot = 0
		}
		child := t.ptr(pg.Data, slot)
		// Validate before following child: an unvalidated pointer may
		// come from a torn read or a mid-split page image.
		if !t.pool.ValidateOpt(pg) || child == 0 {
			return 0, false, buffer.OptRetry
		}
		pid = child
	}
	for pid != 0 {
		pg, okr := t.pool.ReadOpt(pid)
		if !okr {
			return 0, false, pg.Miss()
		}
		d := pg.Data
		slot, _ := t.searchPage(buffer.Page{Data: d}, k, true)
		slot++
		if slot < pCount(d) {
			key := t.key(d, slot)
			tid := t.ptr(d, slot)
			if !t.pool.ValidateOpt(pg) {
				return 0, false, buffer.OptRetry
			}
			return tid, key == k, buffer.OptDone
		}
		// Every entry here is < k (or the page is empty); the run may
		// start in the next page. Validate the next pointer before
		// following it.
		next := pNext(d)
		if !t.pool.ValidateOpt(pg) {
			return 0, false, buffer.OptRetry
		}
		pid = next
	}
	return 0, false, buffer.OptDone
}
