package pagetree

import (
	"slices"

	"repro/internal/idx"
)

// Scan is the range scan of §2.2 and §3.3, in either direction: it
// delivers the entries of [lo, hi] to fn (nil counts them) in ascending
// or, with reverse, descending key order until fn returns false, and
// returns how many it delivered. It descends to the near end of the
// range and hops along the leaf pages' sibling links; with jump-pointer
// prefetching on it first finds the far end's page — so prefetching
// never overshoots the range — gathers the leaf page IDs in between
// from the leaf-parent level, and keeps a window of them in flight
// ahead of the page being consumed.
//
// The walk holds one page at a time: a leaf is unpinned before the next
// one is pinned. That is safe because no page is freed while operations
// run (only the quiescent Scavenge and FreeAll free pages), so a
// sibling ID read under a latch always names a leaf of this tree.
// Forward, a split can only move entries further along the walk.
// Backward it moves them against it, so the walk remembers the page it
// last consumed and, once a predecessor is latched, steps right until
// it holds the page whose right sibling that is; the first page steps
// right the same way, past every page that starts at or below hi. On an
// unlatched pool nothing can split under the walk and neither rule is
// evaluated: the pool calls are those the simulated I/O counts were
// recorded with.
func (t *Tree) Scan(lo, hi idx.Key, reverse bool, fn func(idx.Key, idx.TupleID) bool) (int, error) {
	root, height := t.RootHeight()
	if root == 0 || lo > hi {
		return 0, nil
	}
	near, far := lo, hi
	if reverse {
		near, far = hi, lo
	}
	pid, err := t.LeafFor(root, height, near, !reverse)
	if err != nil {
		return 0, err
	}
	var ahead []uint32 // leaf pages to prefetch, in walk order
	if t.jpa && height > 1 {
		farLeaf, err := t.LeafFor(root, height, far, reverse)
		if err != nil {
			return 0, err
		}
		first, last := pid, farLeaf
		if reverse {
			first, last = farLeaf, pid
		}
		if ahead, err = t.leafPagesBetween(root, height, lo, first, last); err != nil {
			return 0, err
		}
		if reverse {
			slices.Reverse(ahead)
		}
	}
	var succ uint32 // reverse, latched: the page right of the one to consume
	stepRight := reverse && t.conc
	if stepRight {
		if pid, succ, err = t.lastLeafFor(pid, hi); err != nil {
			return 0, err
		}
	}

	count, issued := 0, 0
	for pageIdx := 0; pid != 0; pageIdx++ {
		for ; issued < len(ahead) && issued <= pageIdx+t.pfWindow; issued++ {
			if err := t.pool.Prefetch(ahead[issued]); err != nil {
				return count, err
			}
		}
		pg, err := t.pool.Get(pid)
		for err == nil && stepRight && t.lay.Next(pg.Data) != succ {
			// A split of this page raced the hop onto it and put the
			// upper half in between.
			pid = t.lay.Next(pg.Data)
			t.pool.Unpin(pg, false)
			pg, err = t.pool.Get(pid)
		}
		if err != nil {
			return count, err
		}
		t.lay.TouchHeader(pg)
		n, done := t.lay.ScanLeaf(pg, lo, hi, reverse, pageIdx == 0, fn)
		count += n
		next := t.lay.Next(pg.Data)
		if reverse {
			next = t.lay.Prev(pg.Data)
		}
		t.pool.Unpin(pg, false)
		if done {
			break
		}
		succ, pid = pid, next
	}
	return count, nil
}

// lastLeafFor starts a latched reverse walk: from the leaf the descent
// for hi landed on — at or left of the range's last page, if a split
// raced it — it steps right, one page at a time, to the last leaf whose
// minimum key is <= hi, and returns it with its right sibling (0 at the
// end of the chain), the page the walk treats as just consumed.
func (t *Tree) lastLeafFor(pid uint32, hi idx.Key) (leaf, succ uint32, err error) {
	leaf = pid
	for cur := pid; cur != 0; {
		pg, err := t.pool.Get(cur)
		if err != nil {
			return 0, 0, err
		}
		if cur != pid && t.lay.MinKey(pg.Data) > hi {
			t.pool.Unpin(pg, false)
			return leaf, cur, nil
		}
		leaf, cur = cur, t.lay.Next(pg.Data)
		t.pool.Unpin(pg, false)
	}
	return leaf, 0, nil
}

// leafPagesBetween gathers the leaf page IDs from first through last
// from the jump-pointer array of the leaf-parent level: it descends for
// lo to the leaf parent above first and follows the level's sibling
// links, which are the array's chunk links.
func (t *Tree) leafPagesBetween(root uint32, height int, lo idx.Key, first, last uint32) ([]uint32, error) {
	pid := root
	for lvl := height - 1; lvl > 1; lvl-- {
		pg, err := t.pool.Get(pid)
		if err != nil {
			return nil, err
		}
		t.lay.TouchHeader(pg)
		pid, _ = t.lay.ChildFor(pg, lo, true)
		t.pool.Unpin(pg, false)
	}
	extra := 0
	if t.overshoot {
		extra = t.pfWindow
	}
	var pids []uint32
	for done := false; pid != 0 && !done; {
		pg, err := t.pool.Get(pid)
		if err != nil {
			return nil, err
		}
		t.lay.TouchHeader(pg)
		pids, done = t.lay.JumpPointers(pg, first, last, extra, pids)
		pid = t.lay.Next(pg.Data)
		t.pool.Unpin(pg, false)
		if len(pids) > 0 {
			first = 0 // started: every later page counts from its first child
		}
	}
	return pids, nil
}
