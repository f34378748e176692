package core

import "repro/internal/idx"

// SpaceStats is the shared page-usage report; the type moved to idx so
// every variant can implement idx.Index.SpaceStats uniformly.
type SpaceStats = idx.SpaceStats

// SpaceStats walks the tree and reports page usage.
func (t *DiskFirst) SpaceStats() (SpaceStats, error) {
	var st SpaceStats
	err := t.Walk(func(lvl int, d []byte) {
		st.Pages++
		if lvl == 0 {
			st.LeafPages++
			st.Entries += dfEntries(d)
		} else {
			st.NodePages++
		}
	})
	if st.LeafPages > 0 {
		st.Utilization = float64(st.Entries) / float64(st.LeafPages*t.fanout)
	}
	return st, err
}

// SpaceStats reports page usage from the cache-first space map. The
// map is snapshotted under pagesMu so the walk tolerates concurrent
// page allocation; per-page counts are point-in-time.
func (t *CacheFirst) SpaceStats() (SpaceStats, error) {
	var st SpaceStats
	t.pagesMu.Lock()
	snap := make(map[uint32]byte, len(t.pages))
	for pid, kind := range t.pages {
		snap[pid] = kind
	}
	t.pagesMu.Unlock()
	for pid, kind := range snap {
		st.Pages++
		switch kind {
		case pageLeaf:
			st.LeafPages++
			pg, err := t.pool.Get(pid)
			if err != nil {
				return st, err
			}
			for _, off := range t.pageSlots(pg.Data) {
				st.Entries += t.count(pg.Data, off)
			}
			t.pool.Unpin(pg, false)
		case cfPageNode:
			st.NodePages++
		default:
			st.OtherPages++
		}
	}
	if st.LeafPages > 0 {
		st.Utilization = float64(st.Entries) / float64(st.LeafPages*t.fanout)
	}
	return st, nil
}
