package core

import (
	"fmt"

	"repro/internal/idx"
)

// SearchBatch implements idx.Index. The frontier is a ⟨page, offset⟩
// pair per key; keys whose current nodes share a page share one
// buffer-pool Get, keys landing in the same node share its cache-line
// prefetch (visitNode), and the next level's distinct pages are
// prefetched before descending.
func (t *CacheFirst) SearchBatch(keys []idx.Key, out []idx.SearchResult) ([]idx.SearchResult, error) {
	t.ops.Batches.Add(1)
	t.ops.BatchedKeys.Add(uint64(len(keys)))
	base := len(out)
	out = idx.GrowResults(out, len(keys))
	root, height := t.rootPtrHeight()
	if root.isNil() || len(keys) == 0 {
		return out, nil
	}
	if t.conc {
		// The level-wise ⟨page, offset⟩ frontier is unsafe under
		// concurrent relocation: resolve each key by the latched lookup,
		// which touches no per-tree scratch, so batches run fully in
		// parallel.
		for ki, k := range keys {
			tid, found, err := t.lookup(k)
			if err != nil {
				return out, err
			}
			out[base+ki] = idx.SearchResult{TID: tid, Found: found}
		}
		return out, nil
	}
	s := &t.batch
	s.Prepare(keys)
	n := len(keys)
	for i := 0; i < n; i++ {
		s.Cur[i] = root.pid
		s.CurOff[i] = int32(root.off)
	}

	// Node-level descent (descend, batched).
	for lvl := height - 1; lvl > 0; lvl-- {
		for i := 0; i < n; {
			pid := s.Cur[i]
			pg, err := t.pool.Get(pid)
			if err != nil {
				return out, err
			}
			j := i
			lastOff := int32(-1)
			for ; j < n && s.Cur[j] == pid; j++ {
				off := s.CurOff[j]
				if off != lastOff {
					// One node visit (and line prefetch) per distinct
					// node in the group.
					t.visitNode(pg, int(off))
					lastOff = off
				}
				k := keys[s.Ord[j]]
				slot, _ := t.search(pg, int(off), k, true)
				if slot < 0 {
					slot = 0
				}
				child := t.cChild(pg.Data, int(off), slot)
				if child.isNil() {
					t.pool.Unpin(pg, false)
					return out, fmt.Errorf("core: nil child during batched cache-first descent")
				}
				s.Next[j] = child.pid
				s.NextOff[j] = int32(child.off)
			}
			t.pool.Unpin(pg, false)
			i = j
		}
		s.SwapLevels()
		if err := t.pool.PrefetchRun(s.Cur); err != nil {
			return out, err
		}
	}

	// Leaf phase: one Get per distinct landing page; per key, lookup's
	// walk over the leaf-node chain (simulate mode: the epoch stays put).
	e := t.reloc.Load()
	for i := 0; i < n; {
		pid := s.Cur[i]
		pg, err := t.pool.Get(pid)
		if err != nil {
			return out, err
		}
		j := i
		for ; j < n && s.Cur[j] == pid; j++ {
			ki := s.Ord[j]
			at := ptr{pid, int(s.CurOff[j])}
			tid, found, _, err := t.findFrom(pg, at, keys[ki], e)
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
