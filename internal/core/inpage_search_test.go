package core

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/memsim"
	"repro/internal/treetest"
)

// probeKeys builds the interesting search keys for a node: every stored
// key, its neighbours, and the extremes.
func probeKeys(keys []idx.Key) []idx.Key {
	out := []idx.Key{0, 1, ^idx.Key(0)}
	for _, k := range keys {
		if k > 0 {
			out = append(out, k-1)
		}
		out = append(out, k, k+1)
	}
	return out
}

// checkSameCharge runs fresh and ref twice each (the second run hits a
// warm simulated cache) and asserts the warm-run memsim deltas agree —
// identical probe sequences must charge identically.
func checkSameCharge(t *testing.T, mm *memsim.Model, fresh, ref func()) {
	t.Helper()
	fresh()
	s0 := mm.Stats()
	fresh()
	s1 := mm.Stats()
	ref()
	s2 := mm.Stats()
	ref()
	s3 := mm.Stats()
	dNew := [2]uint64{s1.Cycles - s0.Cycles, s1.MemFetches - s0.MemFetches}
	dRef := [2]uint64{s3.Cycles - s2.Cycles, s3.MemFetches - s2.MemFetches}
	if dNew != dRef {
		t.Fatalf("probe charging diverged: branchless {cycles %d, fetches %d}, branchy {cycles %d, fetches %d}",
			dNew[0], dNew[1], dRef[0], dRef[1])
	}
}

// checkSearch checks pbNode's search against its two baselines — the
// branchless binary search it replaced and the original branchy one —
// on node off of pg, for every interesting key
// in both modes: equal slot/exact answers, and equal charged probe
// work, which proves the SWAR rewrite preserves both the answers and
// the simulated cost tables.
func checkSearch(t *testing.T, n *pbNode, pg buffer.Page, off int) {
	t.Helper()
	keys := make([]idx.Key, n.count(pg.Data, off))
	for i := range keys {
		keys[i] = n.key(pg.Data, off, i)
	}
	for _, k := range probeKeys(keys) {
		for _, lt := range []bool{false, true} {
			want, wantEx := n.searchReference(pg, off, k, lt)
			if got, gotEx := n.search(pg, off, k, lt); got != want || gotEx != wantEx {
				t.Fatalf("search(off=%d, k=%d, lt=%v) = (%d,%v), want (%d,%v)", off, k, lt, got, gotEx, want, wantEx)
			}
			if got, gotEx := n.searchBranchless(pg, off, k, lt); got != want || gotEx != wantEx {
				t.Fatalf("searchBranchless(off=%d, k=%d, lt=%v) = (%d,%v), want (%d,%v)", off, k, lt, got, gotEx, want, wantEx)
			}
			checkSameCharge(t, n.mm,
				func() { n.search(pg, off, k, lt) },
				func() { n.searchReference(pg, off, k, lt) })
			checkSameCharge(t, n.mm,
				func() { n.search(pg, off, k, lt) },
				func() { n.searchBranchless(pg, off, k, lt) })
		}
	}
}

func TestBranchlessSearchEquivalenceDiskFirst(t *testing.T) {
	env := treetest.NewEnv(4<<10, 4096)
	// One-line nodes give multi-level in-page trees, so nonleaf search
	// is exercised at several depths.
	tr, err := NewDiskFirst(DiskFirstConfig{
		Pool: env.Pool, Model: env.Model, NonleafBytes: 64, LeafBytes: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]idx.Entry, 1500)
	for i := range entries {
		entries[i] = idx.Entry{Key: idx.Key(3 * i), TID: idx.TupleID(3*i + 7)}
	}
	if err := tr.Bulkload(entries, 0.8); err != nil {
		t.Fatal(err)
	}

	rootPID, _ := tr.RootHeight()
	pg, err := tr.pool.Get(rootPID)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.pool.Unpin(pg, false)
	d := pg.Data

	// Every in-page nonleaf node, walking each level's sibling chain
	// from the in-page root down.
	levelHead := dfRoot(d)
	for lvl := dfInLevels(d); lvl > 1; lvl-- {
		checked := 0
		for off := levelHead; off != 0; off = tr.nNext(d, off) {
			checkSearch(t, &tr.nonleaf, pg, off)
			checked++
		}
		if checked == 0 {
			t.Fatalf("level %d had no nodes", lvl)
		}
		levelHead = tr.nChild(d, levelHead, 0)
	}

	// Every in-page leaf node.
	leaves := 0
	for off := dfFirstLeaf(d); off != 0; off = tr.lNext(d, off) {
		checkSearch(t, &tr.pbNode, pg, off)
		leaves++
	}
	if leaves == 0 {
		t.Fatal("no in-page leaf nodes")
	}
}

func TestBranchlessSearchEquivalenceCacheFirst(t *testing.T) {
	env := treetest.NewEnv(4<<10, 4096)
	tr, err := NewCacheFirst(CacheFirstConfig{Pool: env.Pool, Model: env.Model})
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]idx.Entry, 2000)
	for i := range entries {
		entries[i] = idx.Entry{Key: idx.Key(3 * i), TID: idx.TupleID(3*i + 7)}
	}
	if err := tr.Bulkload(entries, 0.8); err != nil {
		t.Fatal(err)
	}

	// Walk the whole node tree from the root: the search serves both
	// node kinds, so check every reachable node.
	var walk func(at ptr, lvl int)
	walk = func(at ptr, lvl int) {
		pg, err := tr.pool.Get(at.pid)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.pool.Unpin(pg, false)
		d := pg.Data
		checkSearch(t, &tr.pbNode, pg, at.off)
		if lvl > 1 {
			for i := 0; i < tr.count(d, at.off); i++ {
				walk(tr.cChild(d, at.off, i), lvl-1)
			}
		}
	}
	croot, cheight := tr.rootPtrHeight()
	walk(croot, cheight)
}

// The wall-clock benchmark trio: with the simulator frozen (the
// serving mode), the probe is a plain load and the
// branchy-vs-branchless-vs-SWAR difference is visible. Run with
// -bench BenchmarkInPageLeafSearch to see the deltas; cmd/fpbench
// -inpage sweeps the same kernels across node widths.
func benchLeafSearch(b *testing.B, impl string) {
	env := treetest.NewEnv(16<<10, 4096)
	tr, err := NewDiskFirst(DiskFirstConfig{Pool: env.Pool, Model: env.Model})
	if err != nil {
		b.Fatal(err)
	}
	entries := make([]idx.Entry, 1953)
	for i := range entries {
		entries[i] = idx.Entry{Key: idx.Key(2 * i), TID: idx.TupleID(2*i + 7)}
	}
	if err := tr.Bulkload(entries, 1.0); err != nil {
		b.Fatal(err)
	}
	env.Model.SetConcurrent(true)
	rootPID, _ := tr.RootHeight()
	pg, err := tr.pool.Get(rootPID)
	if err != nil {
		b.Fatal(err)
	}
	defer tr.pool.Unpin(pg, false)
	off := dfFirstLeaf(pg.Data)
	// LCG-driven keys drawn from this node's own key range: a repeating
	// key array (or keys mostly beyond the node) lets the branch
	// predictor memorize or bias the probe outcomes, which is exactly
	// what random point lookups deny it in production.
	cnt := tr.count(pg.Data, off)
	span := uint32(tr.key(pg.Data, off, cnt-1)) + 2
	search := tr.leafSearchImpl(impl)
	x := uint32(12345)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		x = x*1664525 + 1013904223
		k := idx.Key(x % span)
		s, _ := search(pg, off, k, false)
		sink += s
	}
	_ = sink
}

func BenchmarkInPageLeafSearchSWAR(b *testing.B)       { benchLeafSearch(b, "swar") }
func BenchmarkInPageLeafSearchBranchless(b *testing.B) { benchLeafSearch(b, "branchless") }
func BenchmarkInPageLeafSearchBranchy(b *testing.B)    { benchLeafSearch(b, "reference") }
