package core

import (
	"repro/internal/buffer"
	"repro/internal/idx"
)

// SearchBatch implements idx.Index (the page-level-wise descent is
// pagetree's; the two-granularity in-page descent is charged per key).
func (t *DiskFirst) SearchBatch(keys []idx.Key, out []idx.SearchResult) ([]idx.SearchResult, error) {
	t.ops.Batches.Add(1)
	t.ops.BatchedKeys.Add(uint64(len(keys)))
	return t.Tree.SearchBatch(keys, out)
}

// ResolveLeaf implements pagetree.Layout: it finishes a search for k
// from the pinned leaf page pg (which the caller unpins), replicating findFirst's walk over in-page
// leaf nodes, empty pages, and page siblings.
func (t *DiskFirst) ResolveLeaf(pg buffer.Page, k idx.Key) (idx.TupleID, bool, error) {
	cur := pg
	owned := false
	unpin := func() {
		if owned {
			t.pool.Unpin(cur, false)
		}
	}
	first := true
	for {
		if dfEntries(cur.Data) != 0 {
			var off int
			if first {
				off = t.descendInPage(cur, k, true, nil)
			} else {
				off = dfFirstLeaf(cur.Data)
			}
			for off != 0 {
				t.visitLeaf(cur, off)
				slot, _ := t.search(cur, off, k, true)
				slot = t.nextOccupied(cur.Data, off, slot+1)
				if slot >= 0 {
					t.mm.Access(cur.Addr+uint64(t.keyPos(off, slot)), 4)
					if t.key(cur.Data, off, slot) == k {
						t.mm.Access(cur.Addr+uint64(t.ptrPos(off, slot)), 4)
						tid := t.ptrAt(cur.Data, off, slot)
						unpin()
						return tid, true, nil
					}
					unpin()
					return 0, false, nil
				}
				off = t.lNext(cur.Data, off)
			}
		}
		first = false
		next := dfNextPage(cur.Data)
		unpin()
		if next == 0 {
			return 0, false, nil
		}
		npg, err := t.pool.Get(next)
		if err != nil {
			return 0, false, err
		}
		t.TouchHeader(npg)
		cur = npg
		owned = true
	}
}
