package core

import (
	"repro/internal/idx"
)

// Scavenge implements idx.Index for the cache-first fpB+-Tree: rebuild
// from the surviving leaf-node chain after permanent page loss or
// detected corruption. The walk starts at the in-memory leftmost-leaf
// pointer and salvages entries until the chain ends or turns bad: an
// unreadable page, a node on a non-leaf page, an impossible count, a
// key regression, or a chain longer than the allocated node slots
// (loop guard). The old page set is abandoned without recycling its IDs
// (the page-kind registry is simply dropped, so Bulkload's freeAll has
// nothing to free), and stale buffered copies are discarded rather than
// flushed.
func (t *CacheFirst) Scavenge() (idx.ScavengeStats, error) {
	var st idx.ScavengeStats
	var entries []idx.Entry
	var lastKey idx.Key
	have := false
	maxNodes := int(t.pool.MaxPageID()) * t.perPage
	nodes := 0
	cur := t.firstLeafPtr()
	var lastPID uint32
	var page []byte
	for !cur.isNil() {
		if nodes >= maxNodes {
			st.Truncated = true
			break
		}
		if cur.pid != lastPID {
			if lastPID != 0 {
				st.LeavesRead++
			}
			p, err := t.pool.Get(cur.pid)
			if err != nil {
				st.Truncated = true
				break
			}
			t.pagesMu.Lock()
			kind := t.pages[cur.pid]
			t.pagesMu.Unlock()
			page = make([]byte, len(p.Data))
			copy(page, p.Data)
			t.pool.Unpin(p, false)
			lastPID = cur.pid
			if kind != pageLeaf {
				st.Truncated = true
				break
			}
		}
		if cur.off <= 0 || nodeBase(cur.off)+t.s*lineSize > len(page) {
			st.Truncated = true
			break
		}
		cnt := t.count(page, cur.off)
		bad := cnt > t.capL
		if !bad && t.gapped {
			// Gapped leaf: walk physical slots, skip gaps, and require
			// the live-slot count to match the recorded occupancy.
			occ := 0
			for i := 0; i < t.capL; i++ {
				k := t.key(page, cur.off, i)
				if k == gapSentinel {
					continue
				}
				if have && k < lastKey {
					bad = true
					break
				}
				lastKey, have = k, true
				occ++
				entries = append(entries, idx.Entry{Key: k, TID: t.ptrAt(page, cur.off, i)})
			}
			if occ != cnt {
				bad = true
			}
		} else if !bad {
			for i := 0; i < cnt; i++ {
				k := t.key(page, cur.off, i)
				if have && k < lastKey {
					bad = true
					break
				}
				lastKey, have = k, true
				entries = append(entries, idx.Entry{Key: k, TID: t.ptrAt(page, cur.off, i)})
			}
		}
		if bad {
			st.Truncated = true
			break
		}
		nodes++
		cur = t.cNextLeaf(page, cur.off)
	}
	if lastPID != 0 {
		st.LeavesRead++
	}
	st.Entries = len(entries)

	if err := t.pool.DiscardAll(); err != nil {
		return st, err
	}
	// Dropping the page registry (instead of freeing through it) leaks
	// the old page IDs on purpose: a permanently unreadable ID must
	// never be reallocated into the new tree.
	t.pagesMu.Lock()
	t.pages = make(map[uint32]byte)
	t.pagesMu.Unlock()
	t.jpaMu.Lock()
	t.jpa.Reset()
	t.jpaMu.Unlock()
	t.setRootHeight(nilPtr, 0)
	t.setFirstLeaf(nilPtr)
	t.overflowCur = 0
	if err := t.Bulkload(entries, idx.ScavengeFill); err != nil {
		return st, err
	}
	return st, nil
}
