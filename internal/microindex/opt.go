package microindex

// Optimistic (latch-free) point-lookup descent for the micro-indexing
// variant, mirroring the other variants' protocol (DESIGN.md §11.6):
// resolve each page with buffer.ReadOpt, run the two-stage micro-index
// search over its bytes with plain loads, and validate the page's
// latch version before trusting any derived pointer. Restarts are
// bounded; the latched findFirst path remains the fallback.

import (
	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/latch"
)

// optMaxRestarts bounds optimistic-descent restarts before falling
// back to the latched path (same budget as the other variants).
const optMaxRestarts = 8

// searchOpt runs the optimistic point lookup. handled=false means the
// optimistic path is unavailable, met a non-resident page or exhausted
// its restart budget, and the caller must run the latched descent.
func (t *Tree) searchOpt(k idx.Key) (tid idx.TupleID, found, handled bool) {
	if !t.opt || !t.mm.Concurrent() {
		return 0, false, false
	}
	lt := t.pool.Latches()
	var b latch.Backoff
	for attempt := 0; ; attempt++ {
		tid, found, st := t.searchOptAttempt(k)
		if st == buffer.OptDone {
			return tid, found, true
		}
		// A non-resident page fails every restart until someone reads it
		// in: leave the budget unspent and let the latched path pay.
		if st == buffer.OptAbsent || attempt == optMaxRestarts {
			break
		}
		lt.OptRestart()
		b.Pause()
	}
	lt.OptFallback()
	return 0, false, false
}

// searchOptAttempt is one latch-free descent attempt; results are only
// meaningful when st is buffer.OptDone.
func (t *Tree) searchOptAttempt(k idx.Key) (tid idx.TupleID, found bool, st buffer.OptStatus) {
	// A torn count can send the micro-index search past the page before
	// validation rejects it; turn the bounds panic into a restart.
	defer func() {
		if recover() != nil {
			tid, found, st = 0, false, buffer.OptRetry
		}
	}()
	root, height := t.rootHeight()
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
		// The duplicate run may continue in the next page; validate the
		// next pointer before following it.
		next := pNext(d)
		if !t.pool.ValidateOpt(pg) {
			return 0, false, buffer.OptRetry
		}
		pid = next
	}
	return 0, false, buffer.OptDone
}
