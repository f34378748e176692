package core

import (
	"sort"
	"testing"

	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/memsim"
)

// FuzzInPageSearch feeds arbitrary slot layouts through the raw SWAR
// kernels and checks them against scalar reference loops: dense
// below/above counts on unsorted data, the binary-search insertion
// bound on sorted data, and the gapped predecessor scan on
// sentinel-laden layouts. The node kernel's search then runs on a node
// image of the same sorted and gapped slots, against its branchy
// baseline and the gapped reference. Each fuzz byte group contributes one slot (4
// key bytes + 1 gap flag), so the corpus explores slot counts, duplicate
// runs, sentinel placement, and both probe modes.
func FuzzInPageSearch(f *testing.F) {
	f.Add([]byte{}, uint32(0), false)
	f.Add([]byte{1, 0, 0, 0, 0, 9, 0, 0, 0, 1}, uint32(5), true)
	f.Add([]byte{
		7, 0, 0, 0, 0,
		7, 0, 0, 0, 1,
		7, 0, 0, 0, 0,
		255, 255, 255, 255, 0,
	}, uint32(7), false)
	f.Add([]byte{
		0, 0, 0, 0, 0,
		1, 0, 0, 0, 0,
		2, 0, 0, 0, 1,
		3, 0, 0, 0, 0,
		4, 0, 0, 0, 1,
		250, 0, 0, 0, 0,
		251, 0, 0, 0, 0,
	}, uint32(4294967295), true)

	f.Fuzz(func(t *testing.T, raw []byte, probe uint32, lt bool) {
		const maxSlots = 64
		slots := len(raw) / 5
		if slots > maxSlots {
			slots = maxSlots
		}
		k := idx.Key(probe)

		keys := make([]idx.Key, slots)
		gap := make([]bool, slots)
		live := 0
		for i := 0; i < slots; i++ {
			keys[i] = idx.Key(le.Uint32(raw[5*i:]))
			gap[i] = raw[5*i+4]&1 != 0
			if !gap[i] {
				live++
			}
		}

		// Dense counts on arbitrary (unsorted, duplicate-heavy) keys.
		buf := make([]byte, 4*slots)
		wantLT, wantGT := 0, 0
		for i, kk := range keys {
			le.PutUint32(buf[4*i:], uint32(kk))
			if kk < k {
				wantLT++
			}
			if kk > k {
				wantGT++
			}
		}
		cLT, cGT := swarScanDense(buf, 0, slots, k)
		if cLT != wantLT || cGT != wantGT {
			t.Fatalf("swarScanDense(%v, %d) = (%d, %d), reference (%d, %d)",
				keys, k, cLT, cGT, wantLT, wantGT)
		}

		// Insertion bound on the sorted layout, against sort.Search.
		sorted := append([]idx.Key(nil), keys...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
		checkKernel(t, sorted, false, k, lt)
		for i, kk := range sorted {
			le.PutUint32(buf[4*i:], uint32(kk))
		}
		sLT, sGT := swarScanDense(buf, 0, slots, k)
		got := swarBound(slots, sLT, sGT, lt)
		var want int
		if lt {
			want = sort.Search(slots, func(i int) bool { return sorted[i] >= k })
		} else {
			want = sort.Search(slots, func(i int) bool { return sorted[i] > k })
		}
		if got != want {
			t.Fatalf("swarBound(%v, %d, lt=%v) = %d, sort.Search %d",
				sorted, k, lt, got, want)
		}
		// The hybrid (binary narrowing + SWAR window scan) must land on
		// the same bound; maxSlots of 64 exercises both the pure-scan
		// path (cnt <= swarWindow) and the narrowing loop.
		if hy := swarScanSorted(buf, 0, slots, k, lt); hy != want {
			t.Fatalf("swarScanSorted(%v, %d, lt=%v) = %d, sort.Search %d",
				sorted, k, lt, hy, want)
		}

		// Gapped scan: live keys sorted among themselves, sentinel
		// everywhere the gap flag is set. A live slot never holds the
		// sentinel (it is not insertable under GappedLeaves).
		liveKeys := make([]idx.Key, 0, live)
		for i := 0; i < slots; i++ {
			if !gap[i] {
				kk := keys[i]
				if kk == gapSentinel {
					kk--
				}
				liveKeys = append(liveKeys, kk)
			}
		}
		sort.Slice(liveKeys, func(a, b int) bool { return liveKeys[a] < liveKeys[b] })
		physical := make([]idx.Key, slots)
		next := 0
		for i := 0; i < slots; i++ {
			if gap[i] {
				physical[i] = gapSentinel
			} else {
				physical[i] = liveKeys[next]
				next++
			}
			le.PutUint32(buf[4*i:], uint32(physical[i]))
		}
		checkKernel(t, physical, true, k, lt)
		gotSlot, gotEq := swarScanGapped(buf, 0, slots, k, lt)
		wantSlot, wantEq := refGappedLeafSearch(physical, k, lt)
		// The kernel reports raw equality; tree callers (and the
		// reference) mask it to exact-match mode (!lt).
		if gotSlot != wantSlot || (!lt && gotEq) != wantEq {
			t.Fatalf("swarScanGapped(%v, %v, lt=%v) = (%d, %v), reference (%d, %v)",
				physical, k, lt, gotSlot, gotEq, wantSlot, wantEq)
		}
		anyEq := false
		for _, kk := range liveKeys {
			anyEq = anyEq || kk == k
		}
		if gotEq != anyEq {
			t.Fatalf("swarScanGapped(%v, %v, lt=%v) anyEq = %v, want %v",
				physical, k, lt, gotEq, anyEq)
		}
	})
}

// checkKernel lays slots out as leaf node 1 of a leaf page — sorted
// dense keys, or a gapped node of exactly len(slots) slots — and checks
// pbNode.search on it against the branchy baseline (dense) or the
// gapped reference.
func checkKernel(t *testing.T, slots []idx.Key, gapped bool, k idx.Key, lt bool) {
	t.Helper()
	mm := memsim.NewDefault()
	n := pbNode{mm: mm, hdr: cfNodeHdr, capL: len(slots), gapped: gapped}
	pg := buffer.Page{Data: make([]byte, n.ptrPos(1, len(slots)))}
	pg.Data[0] = pageLeaf
	n.setCount(pg.Data, 1, len(slots))
	for i, kk := range slots {
		n.setKey(pg.Data, 1, i, kk)
	}
	got, gotEx := n.search(pg, 1, k, lt)
	want, wantEx := refGappedLeafSearch(slots, k, lt)
	if !gapped {
		want, wantEx = n.searchReference(pg, 1, k, lt)
	}
	if got != want || gotEx != wantEx {
		t.Fatalf("pbNode.search(%v, gapped=%v, %d, lt=%v) = (%d, %v), reference (%d, %v)",
			slots, gapped, k, lt, got, gotEx, want, wantEx)
	}
}

// FuzzPrefetchNode hands prefetchNode arbitrary page sizes, node
// offsets and line counts: it must clamp, never panic, and leave the
// page bytes alone.
func FuzzPrefetchNode(f *testing.F) {
	f.Add(uint16(4096), int64(1), int64(8))
	f.Add(uint16(4096), int64(-1), int64(8))
	f.Add(uint16(4096), int64(63), int64(2))
	f.Add(uint16(100), int64(1), int64(0))
	f.Add(uint16(0), int64(0), int64(1))
	f.Add(uint16(1024), int64(1)<<58, int64(1)<<58)
	mm := memsim.NewDefault()
	mm.SetConcurrent(true)
	f.Fuzz(func(t *testing.T, size uint16, off, lines int64) {
		d := make([]byte, size)
		for i := range d {
			d[i] = byte(i)
		}
		checkPrefetchNode(t, mm, d, int(off), int(lines))
	})
}
