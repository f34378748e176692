package pagetree

import (
	"repro/internal/buffer"
	"repro/internal/idx"
)

// The point reads. Every one is the same walk: descend with
// strictly-less comparisons to the leaf page that would hold k, then
// step right along the leaf chain to the first entry >= k — a run of
// duplicates, or lazily emptied pages, can push it into a later page.
// The layout searches inside a page (Layout.SeekLeaf); this file owns
// the page-level walk, pinned (seek) or latch-free (lookupOpt).

// Lookup is the point lookup: latch-free when the protocol is live
// (DESIGN.md §11.6), with the pinned walk as the fallback for a page
// that is not resident or for a reader that keeps meeting writers.
func (t *Tree) Lookup(k idx.Key) (idx.TupleID, bool, error) {
	if t.Opt() {
		if tid, found, handled := t.pool.SearchOpt(k, t.lookupOpt); handled {
			return tid, found, nil
		}
	}
	pg, pos, err := t.Locate(k, false)
	if pos < 0 {
		return 0, false, err
	}
	tid := t.lay.TupleAt(pg, pos)
	t.pool.Unpin(pg, false)
	return tid, true, nil
}

// Locate finds the first entry == k and returns its page, pinned (the
// caller unpins it), and its position for the layout; pos -1 when k is
// absent, with nothing left pinned. With excl — a concurrent Delete,
// walking one exclusive latch at a time — it tries the leaf-only
// protocol first and starts from the leaf page that latched, counting
// the delete as leaf-only or as structural.
func (t *Tree) Locate(k idx.Key, excl bool) (pg buffer.Page, pos int, err error) {
	if excl {
		var ok bool
		if pg, ok = t.LatchLeafOpt(k, false); ok {
			t.pool.Latches().OptWrite()
		} else {
			t.pool.Latches().OptWriteFallback()
		}
	}
	if !pg.Valid() {
		root, height := t.RootHeight()
		if root == 0 {
			return buffer.Page{}, -1, nil
		}
		pid, err := t.LeafFor(root, height, k, true)
		if err != nil {
			return buffer.Page{}, -1, err
		}
		if pg, err = t.pin(pid, excl); err != nil {
			return buffer.Page{}, -1, err
		}
	}
	t.lay.TouchHeader(pg)
	return t.seek(pg, k, true, excl)
}

// pin pins a leaf page for a walk: exclusively for a Delete's.
func (t *Tree) pin(pid uint32, excl bool) (buffer.Page, error) {
	if excl {
		return t.pool.GetX(pid)
	}
	return t.pool.Get(pid)
}

// seek walks right from the pinned, touched leaf page pg to the first
// entry >= k and returns its page and position when its key is k (pos
// -1 otherwise). A page is unpinned before the next one is pinned,
// except pg itself when !own: SearchBatch keeps it for the next key.
// Only the page returned stays pinned beyond that.
func (t *Tree) seek(pg buffer.Page, k idx.Key, own, excl bool) (buffer.Page, int, error) {
	for first := true; ; first = false {
		if pos, key := t.lay.SeekLeaf(pg, k, first); pos >= 0 {
			if key == k {
				return pg, pos, nil
			}
			break
		}
		next := t.lay.Next(pg.Data)
		if next == 0 {
			break
		}
		if own {
			t.pool.Unpin(pg, false)
		}
		own = true
		var err error
		if pg, err = t.pin(next, excl); err != nil {
			return buffer.Page{}, -1, err
		}
		t.lay.TouchHeader(pg)
	}
	if own {
		t.pool.Unpin(pg, false)
	}
	return buffer.Page{}, -1, nil
}

// lookupOpt is one latch-free lookup attempt for buffer.SearchOpt: the
// walk of seek with no pin and no latch. Each page is sampled with
// ReadOpt, and the view its ID was read from is validated only then; the
// layout searches the unvalidated bytes (a page with a zero Addr, so
// the serving tree's frozen model charges nothing), and the answer
// counts once the view it was read from validates too. A torn count or
// offset can send that search past the page before validation rejects
// it: the bounds panic becomes a retry.
func (t *Tree) lookupOpt(k idx.Key) (tid idx.TupleID, found bool, st buffer.OptStatus) {
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
		op, ok := t.pool.ReadOpt(pid)
		if via.Valid() && !t.pool.ValidateOpt(via) {
			return 0, false, buffer.OptRetry
		}
		if !ok {
			return 0, false, op.Miss()
		}
		pg := buffer.Page{ID: pid, Data: op.Data}
		if pos, key := t.lay.SeekLeaf(pg, k, first); pos >= 0 {
			if key == k {
				tid = t.lay.TupleAt(pg, pos)
			}
			if !t.pool.ValidateOpt(op) {
				return 0, false, buffer.OptRetry
			}
			return tid, key == k, buffer.OptDone
		}
		pid, via = t.lay.Next(op.Data), op
	}
	if via.Valid() && !t.pool.ValidateOpt(via) {
		return 0, false, buffer.OptRetry
	}
	return 0, false, buffer.OptDone
}
