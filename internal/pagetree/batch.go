package pagetree

import "repro/internal/idx"

// SearchBatch looks up keys, appending one result per key to out. The
// batch is sorted and descended level-wise: keys landing in the same
// page share a single buffer-pool Get (and the page-header cache
// traffic), and the next level's distinct pages are prefetched before
// the descent, so a batch costs one pin per distinct page per level
// instead of one per key. The in-page search is still charged per key.
func (t *Tree) SearchBatch(keys []idx.Key, out []idx.SearchResult) ([]idx.SearchResult, error) {
	base := len(out)
	out = idx.GrowResults(out, len(keys))
	root, height := t.RootHeight()
	if root == 0 || len(keys) == 0 {
		return out, nil
	}
	// The tree's own scratch sequentially (deterministic 0-alloc warm
	// path), a sync.Pool draw in concurrent mode so simultaneous
	// read-only batches never share state.
	s := &t.batch
	if t.conc {
		s = idx.GetScratch()
		defer idx.PutScratch(s)
	}
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
			t.lay.TouchHeader(pg)
			j := i
			for ; j < n && s.Cur[j] == pid; j++ {
				child, _ := t.lay.ChildFor(pg, keys[s.Ord[j]], true)
				if child == 0 {
					t.pool.Unpin(pg, false)
					return out, errNilChild
				}
				s.Next[j] = child
			}
			t.pool.Unpin(pg, false)
			i = j
		}
		s.SwapLevels()
		if err := t.pool.PrefetchRun(s.Cur); err != nil {
			return out, err
		}
	}

	// Leaf phase: each key takes the point lookup's walk from its
	// landing page, which stays pinned for the next key.
	for i := 0; i < n; {
		pid := s.Cur[i]
		pg, err := t.pool.Get(pid)
		if err != nil {
			return out, err
		}
		t.lay.TouchHeader(pg)
		j := i
		for ; j < n && s.Cur[j] == pid; j++ {
			ki := s.Ord[j]
			at, pos, err := t.seek(pg, keys[ki], false, false)
			if err != nil {
				t.pool.Unpin(pg, false)
				return out, err
			}
			var r idx.SearchResult
			if pos >= 0 {
				r = idx.SearchResult{TID: t.lay.TupleAt(at, pos), Found: true}
				if at.ID != pid {
					t.pool.Unpin(at, false)
				}
			}
			out[base+int(ki)] = r
		}
		t.pool.Unpin(pg, false)
		i = j
	}
	return out, nil
}
