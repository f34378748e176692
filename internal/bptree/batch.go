package bptree

import (
	"repro/internal/buffer"
	"repro/internal/idx"
)

// SearchBatch implements idx.Index (the level-wise descent is
// pagetree's).
func (t *Tree) SearchBatch(keys []idx.Key, out []idx.SearchResult) ([]idx.SearchResult, error) {
	t.ops.Batches.Add(1)
	t.ops.BatchedKeys.Add(uint64(len(keys)))
	return t.Tree.SearchBatch(keys, out)
}

// ResolveLeaf implements pagetree.Layout: it finishes a search for k
// starting at the pinned leaf page pg (which the caller unpins), walking
// right siblings exactly as findFirst does when a duplicate run spans
// pages.
func (t *Tree) ResolveLeaf(pg buffer.Page, k idx.Key) (idx.TupleID, bool, error) {
	cur := pg
	owned := false
	for {
		slot, _ := t.searchPage(cur, k, true)
		slot++
		if slot < pCount(cur.Data) {
			t.mm.Access(cur.Addr+uint64(t.keyOff(slot)), idx.KeySize)
			if t.key(cur.Data, slot) == k {
				tid := t.readPtr(cur, slot)
				if owned {
					t.pool.Unpin(cur, false)
				}
				return tid, true, nil
			}
			if owned {
				t.pool.Unpin(cur, false)
			}
			return 0, false, nil
		}
		next := pNext(cur.Data)
		if owned {
			t.pool.Unpin(cur, false)
		}
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
