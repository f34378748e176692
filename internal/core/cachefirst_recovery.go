package core

import "repro/internal/idx"

// DurableMeta implements idx.Recoverable: the root node pointer and the
// leftmost-leaf node pointer are the cache-first tree's essential
// state. The space map (page-kind registry), jump-pointer array, and
// overflow cursor are all derived — the kind byte is the first byte of
// every page header, and the JPA is rebuilt by Scavenge's bulkload.
func (t *CacheFirst) DurableMeta() idx.DurableMeta {
	pid, off, h := t.meta.Load()
	fp, fo := t.first.Load()
	return idx.DurableMeta{RootPID: pid, RootOff: off, Height: h, LeftPID: fp, LeftOff: fo}
}

// RestoreMeta implements idx.Recoverable. Besides republishing the
// pointers, it rebuilds the page-kind registry from the on-page kind
// bytes: the Scavenge walk refuses to read leaf nodes off a page the
// registry does not mark as a leaf page, so recovery must re-register
// the replayed pages before scavenging. Page IDs sitting on the
// allocator free list are skipped (their stale kind bytes must not
// resurrect them), and unreadable pages are left unregistered — if the
// leaf walk reaches one, Scavenge truncates there exactly as it does
// for in-run media loss.
func (t *CacheFirst) RestoreMeta(dm idx.DurableMeta) error {
	t.meta.Store(dm.RootPID, dm.RootOff, dm.Height)
	t.first.Store(dm.LeftPID, dm.LeftOff)

	next, free := t.pool.AllocState()
	freed := make(map[uint32]bool, len(free))
	for _, pid := range free {
		freed[pid] = true
	}
	pages := make(map[uint32]byte)
	for pid := uint32(1); pid < next; pid++ {
		if freed[pid] {
			continue
		}
		pg, err := t.pool.Get(pid)
		if err != nil {
			continue
		}
		kind := pg.Data[cfOffKind]
		t.pool.Unpin(pg, false)
		if kind >= pageLeaf && kind <= cfPageOverflow {
			pages[pid] = kind
		}
	}
	t.pagesMu.Lock()
	t.pages = pages
	t.pagesMu.Unlock()
	return nil
}

var _ idx.Recoverable = (*CacheFirst)(nil)
