package core

// Optimistic (latch-free) point lookup for the disk-first variant, per
// DESIGN.md §11.6. The page-level descent is pagetree.LeafForOpt; this
// file supplies its in-page half (ChildForOpt) and the leaf walk. The
// lookup takes no latches and no pins: each page is resolved with
// buffer.ReadOpt, searched with plain loads (charges are frozen no-ops
// in serving mode, and the in-page node-visit stats are deliberately
// skipped — they would be the only atomic stores left on the path), and
// everything derived from its bytes — the child page ID, the in-page next-node offset, the
// page-level next pointer, the tuple ID — is re-validated with
// buffer.ValidateOpt before it is trusted or followed. Any validation
// failure or write-locked observation restarts the whole descent from
// the (atomic) root triple; after a bounded number of restarts
// (buffer.SearchOpt, the one loop every variant shares) the reader
// falls back to the shared-latch path so writer storms cannot livelock
// it. A non-resident page falls back at once: no restart can succeed
// before the latched path has paid the read.

import (
	"repro/internal/buffer"
	"repro/internal/idx"
)

// searchOpt runs the optimistic point lookup. handled=false means the
// optimistic path is unavailable or gave up (non-resident page, or
// restart budget exhausted) and the caller must run the latched descent.
func (t *DiskFirst) searchOpt(k idx.Key) (tid idx.TupleID, found, handled bool) {
	if !t.Opt() {
		return 0, false, false
	}
	return t.pool.SearchOpt(k, t.searchOptAttempt)
}

// searchOptAttempt is one latch-free descent attempt. OptRetry means
// the attempt observed interference and may be retried, OptAbsent that
// it met a non-resident page and must be abandoned; the results are
// only meaningful when st is buffer.OptDone. via is the view pid was
// read from, validated once pid's page has been sampled (LeafForOpt).
func (t *DiskFirst) searchOptAttempt(k idx.Key) (tid idx.TupleID, found bool, st buffer.OptStatus) {
	// A torn read can yield wild in-page offsets before validation gets
	// to reject them; convert the resulting bounds panic into a restart.
	defer func() {
		if recover() != nil {
			tid, found, st = 0, false, buffer.OptRetry
		}
	}()
	pid, via, _, st := t.LeafForOpt(k, true)
	if st != buffer.OptDone {
		return 0, false, st
	}
	for first := true; pid != 0; first = false {
		pg, okr := t.pool.ReadOpt(pid)
		if via.Valid() && !t.pool.ValidateOpt(via) {
			return 0, false, buffer.OptRetry
		}
		if !okr {
			return 0, false, pg.Miss()
		}
		d := pg.Data
		pid, via = dfNextPage(d), pg
		if dfEntries(d) == 0 {
			// Lazy deletion can leave empty pages; hop them.
			continue
		}
		off := dfFirstLeaf(d)
		if first {
			off = t.descendInPageOpt(d, k, true)
		}
		// The in-page hop count is bounded by the page's line count: a
		// torn next-offset chain could otherwise cycle, and unlike a
		// wild offset a cycle never faults into the recover above.
		for hops := 0; off != 0 && hops < t.pageLines; hops++ {
			prefetchNode(t.mm, buffer.Page{Data: d}, off, t.x)
			slot, _ := t.search(buffer.Page{Data: d}, off, k, true)
			slot = t.nextOccupied(d, off, slot+1)
			if slot >= 0 {
				key := t.key(d, off, slot)
				tid := t.ptrAt(d, off, slot)
				if !t.pool.ValidateOpt(pg) {
					return 0, false, buffer.OptRetry
				}
				return tid, key == k, buffer.OptDone
			}
			off = t.lNext(d, off)
		}
	}
	if via.Valid() && !t.pool.ValidateOpt(via) {
		return 0, false, buffer.OptRetry
	}
	return 0, false, buffer.OptDone
}

// descendInPageOpt is descendInPage minus the node-visit charges and
// stats: the charge entry points are frozen no-ops in serving mode and
// the NodeVisits counter would be an atomic store on the latch-free
// path. Each nonleaf node is still prefetched as its offset becomes
// known (the caller prefetches the leaf node returned). The data passed
// in is an unvalidated optimistic snapshot.
func (t *DiskFirst) descendInPageOpt(d []byte, k idx.Key, lt bool) int {
	pg := buffer.Page{Data: d}
	off := dfRoot(d)
	for lvl := dfInLevels(d); lvl > 1; lvl-- {
		prefetchNode(t.mm, pg, off, t.w)
		slot, _ := t.nonleaf.search(pg, off, k, lt)
		if slot < 0 {
			slot = 0
		}
		off = t.nChild(d, off, slot)
	}
	return off
}

// ChildForOpt implements pagetree.Layout: ChildFor over an unvalidated
// optimistic snapshot (no charges, no visit stats).
func (t *DiskFirst) ChildForOpt(d []byte, k idx.Key, lt bool) (uint32, bool) {
	off := t.descendInPageOpt(d, k, lt)
	prefetchNode(t.mm, buffer.Page{Data: d}, off, t.x)
	slot, _ := t.search(buffer.Page{Data: d}, off, k, lt)
	below := slot < 0
	if below {
		slot = 0
	}
	return t.ptrAt(d, off, slot), below
}
