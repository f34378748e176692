package bptree

// Optimistic (latch-free) point lookup (DESIGN.md §11.6): the descent
// is pagetree.LeafForOpt; the leaf-chain walk below resolves each page
// with buffer.ReadOpt, searches its bytes with plain loads (searchPage,
// whichever the layout), and validates before trusting anything derived
// from them. Restarts are bounded (buffer.SearchOpt); the latched
// findFirst path remains the fallback.

import (
	"repro/internal/buffer"
	"repro/internal/idx"
)

// searchOpt runs the optimistic point lookup. handled=false means the
// optimistic path is unavailable, met a non-resident page or exhausted
// its restart budget, and the caller must run the latched descent.
func (t *Tree) searchOpt(k idx.Key) (tid idx.TupleID, found, handled bool) {
	if !t.Opt() {
		return 0, false, false
	}
	return t.pool.SearchOpt(k, t.searchOptAttempt)
}

// searchOptAttempt is one latch-free descent attempt; results are only
// meaningful when st is buffer.OptDone. via is the view pid was read
// from, validated once pid's page has been sampled (LeafForOpt).
func (t *Tree) searchOptAttempt(k idx.Key) (tid idx.TupleID, found bool, st buffer.OptStatus) {
	// A torn count can send the in-page search past the page before
	// validation rejects it; turn the bounds panic into a restart.
	defer func() {
		if recover() != nil {
			tid, found, st = 0, false, buffer.OptRetry
		}
	}()
	pid, via, _, st := t.LeafForOpt(k, true)
	if st != buffer.OptDone {
		return 0, false, st
	}
	for pid != 0 {
		pg, okr := t.pool.ReadOpt(pid)
		if via.Valid() && !t.pool.ValidateOpt(via) {
			return 0, false, buffer.OptRetry
		}
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
		// start in the next page.
		pid, via = pNext(d), pg
	}
	if via.Valid() && !t.pool.ValidateOpt(via) {
		return 0, false, buffer.OptRetry
	}
	return 0, false, buffer.OptDone
}
