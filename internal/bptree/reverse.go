package bptree

import (
	"repro/internal/idx"
	"repro/internal/memsim"
)

// RangeScanReverse implements idx.Index: it visits [startKey, endKey]
// in descending order by walking the leaf pages' prev links (the DB2
// implementation of §4.3.3 keeps sibling links in both directions).
// With JPA enabled, the leaf pages of the range are gathered from the
// leaf-parent chain (the scan already knows both end keys) and
// prefetched in reverse consumption order.
func (t *Tree) RangeScanReverse(startKey, endKey idx.Key, fn func(idx.Key, idx.TupleID) bool) (int, error) {
	t.ops.ReverseScans.Add(1)
	root, height := t.RootHeight()
	if root == 0 || startKey > endKey {
		return 0, nil
	}
	endLeaf, err := t.LeafFor(root, height, endKey, false)
	if err != nil {
		return 0, err
	}
	var pids []uint32 // leaf pages in reverse scan order
	if t.jpa {
		startLeaf, err := t.LeafFor(root, height, startKey, true)
		if err != nil {
			return 0, err
		}
		fwd, err := t.leafPagesBetween(root, height, startKey, startLeaf, endLeaf)
		if err != nil {
			return 0, err
		}
		pids = make([]uint32, len(fwd))
		for i, p := range fwd {
			pids[len(fwd)-1-i] = p
		}
	}

	count := 0
	pfNext, pageIdx := 0, 0
	pid := endLeaf
	first := true
	for pid != 0 {
		if t.jpa {
			for pfNext < len(pids) && pfNext <= pageIdx+t.pfWindow {
				if err := t.pool.Prefetch(pids[pfNext]); err != nil {
					return count, err
				}
				pfNext++
			}
		}
		pg, err := t.pool.Get(pid)
		if err != nil {
			return count, err
		}
		t.TouchHeader(pg)
		i := pCount(pg.Data) - 1
		if first {
			// Position on the last entry <= endKey.
			i, _ = t.searchPage(pg, endKey, false)
			first = false
		}
		for ; i >= 0; i-- {
			t.mm.Access(pg.Addr+uint64(t.keyOff(i)), idx.KeySize)
			k := t.key(pg.Data, i)
			if k < startKey {
				t.pool.Unpin(pg, false)
				return count, nil
			}
			if k > endKey {
				continue
			}
			t.mm.Access(pg.Addr+uint64(t.ptrOff(i)), idx.TupleIDSize)
			t.mm.Busy(memsim.CostEntryVisit)
			tid := t.ptr(pg.Data, i)
			count++
			if fn != nil && !fn(k, tid) {
				t.pool.Unpin(pg, false)
				return count, nil
			}
		}
		prev := pPrev(pg.Data)
		t.pool.Unpin(pg, false)
		pid = prev
		pageIdx++
	}
	return count, nil
}
