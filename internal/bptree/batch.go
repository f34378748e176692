package bptree

import (
	"repro/internal/buffer"
	"repro/internal/idx"
)

// scratch returns the batch scratch for one SearchBatch call: the
// tree's own scratch sequentially (deterministic 0-alloc warm path), a
// sync.Pool draw in concurrent mode so simultaneous read-only batches
// never share state.
func (t *Tree) scratch() *idx.BatchScratch {
	if t.conc {
		return idx.GetScratch()
	}
	return &t.batch
}

func (t *Tree) releaseScratch(s *idx.BatchScratch) {
	if t.conc {
		idx.PutScratch(s)
	}
}

// SearchBatch implements idx.Index. The batch is sorted and descended
// level-wise: keys landing in the same page share a single buffer-pool
// Get (and the page-header cache traffic), and the next level's
// distinct pages are prefetched before the descent, so a batch costs
// one pin per distinct page per level instead of one per key.
func (t *Tree) SearchBatch(keys []idx.Key, out []idx.SearchResult) ([]idx.SearchResult, error) {
	t.ops.Batches.Add(1)
	t.ops.BatchedKeys.Add(uint64(len(keys)))
	base := len(out)
	out = idx.GrowResults(out, len(keys))
	root, height := t.rootHeight()
	if root == 0 || len(keys) == 0 {
		return out, nil
	}
	s := t.scratch()
	defer t.releaseScratch(s)
	s.Prepare(keys)
	n := len(keys)
	for i := 0; i < n; i++ {
		s.Cur[i] = root
	}

	// Page-level descent: one Get per distinct page per level.
	for lvl := height - 1; lvl > 0; lvl-- {
		for i := 0; i < n; {
			pid := s.Cur[i]
			pg, err := t.pool.Get(pid)
			if err != nil {
				return out, err
			}
			t.touchHeader(pg)
			j := i
			for ; j < n && s.Cur[j] == pid; j++ {
				k := keys[s.Ord[j]]
				slot, _ := t.searchPage(pg, k, true)
				if slot < 0 {
					slot = 0
				}
				s.Next[j] = t.readPtr(pg, slot)
			}
			t.pool.Unpin(pg, false)
			i = j
		}
		s.SwapLevels()
		if err := t.pool.PrefetchRun(s.Cur); err != nil {
			return out, err
		}
	}

	// Leaf phase: resolve each key from its landing page, replicating
	// the per-key findFirst walk (duplicate runs may span pages).
	for i := 0; i < n; {
		pid := s.Cur[i]
		pg, err := t.pool.Get(pid)
		if err != nil {
			return out, err
		}
		t.touchHeader(pg)
		j := i
		for ; j < n && s.Cur[j] == pid; j++ {
			ki := s.Ord[j]
			tid, found, err := t.resolveLeaf(pg, keys[ki])
			if err != nil {
				t.pool.Unpin(pg, false)
				return out, err
			}
			out[base+int(ki)] = idx.SearchResult{TID: tid, Found: found}
		}
		t.pool.Unpin(pg, false)
		i = j
	}
	return out, nil
}

// resolveLeaf finishes a search for k starting at the pinned leaf page
// pg (which the caller unpins), walking right siblings exactly as
// findFirst does when a duplicate run spans pages.
func (t *Tree) resolveLeaf(pg buffer.Page, k idx.Key) (idx.TupleID, bool, error) {
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
		t.touchHeader(npg)
		cur = npg
		owned = true
	}
}
