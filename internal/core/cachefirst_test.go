package core

import (
	"fmt"
	"testing"

	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/memsim"
	"repro/internal/treetest"
)

func cfFactory(jpa bool, nodeBytes int) treetest.Factory {
	return func(t *testing.T, env *treetest.Env) idx.Index {
		tr, err := NewCacheFirst(CacheFirstConfig{
			Pool: env.Pool, Model: env.Model, EnableJPA: jpa, NodeBytes: nodeBytes,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
}

func TestCacheFirstConformance4K(t *testing.T)  { treetest.Run(t, 4<<10, cfFactory(false, 0)) }
func TestCacheFirstConformance16K(t *testing.T) { treetest.Run(t, 16<<10, cfFactory(false, 0)) }
func TestCacheFirstConformanceJPA(t *testing.T) { treetest.Run(t, 8<<10, cfFactory(true, 0)) }
func TestCacheFirstConformanceSmallNodes(t *testing.T) {
	// 128-byte nodes: multiple full in-page subtree levels.
	treetest.Run(t, 4<<10, cfFactory(true, 128))
}

func TestCacheFirstChaos(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			treetest.RunChaos(t, 4<<10, cfFactory(false, 0), seed, 6000)
		})
	}
}

func TestCacheFirstFanoutMatchesTable2(t *testing.T) {
	want := map[int]int{4 << 10: 497, 8 << 10: 994, 16 << 10: 2001, 32 << 10: 4029}
	for ps, fan := range want {
		env := treetest.NewEnv(ps, 64)
		tr, err := NewCacheFirst(CacheFirstConfig{Pool: env.Pool, Model: env.Model})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Fanout() != fan {
			t.Errorf("%dKB cache-first fan-out = %d, want %d", ps>>10, tr.Fanout(), fan)
		}
	}
}

func TestCacheFirstPlacementShape(t *testing.T) {
	// §3.2.2 worked example: 69-way nodes, 23 slots per 16 KB page ->
	// one full level and an underflow of 22.
	env := treetest.NewEnv(16<<10, 64)
	tr, err := NewCacheFirst(CacheFirstConfig{Pool: env.Pool, Model: env.Model})
	if err != nil {
		t.Fatal(err)
	}
	full, under := tr.placementShape(tr.capN)
	if full != 1 || under != 22 {
		t.Fatalf("placement shape = (%d, %d), want (1, 22)", full, under)
	}
}

func TestCacheFirstSearchPrefetches(t *testing.T) {
	env := treetest.NewEnv(16<<10, 8192)
	tr, err := NewCacheFirst(CacheFirstConfig{Pool: env.Pool, Model: env.Model})
	if err != nil {
		t.Fatal(err)
	}
	es := treetest.GenEntries(200000, 10, 2)
	if err := tr.Bulkload(es, 1.0); err != nil {
		t.Fatal(err)
	}
	env.Model.ColdCaches()
	before := env.Model.Stats()
	if _, ok, _ := tr.Search(es[123456].Key); !ok {
		t.Fatal("search failed")
	}
	d := env.Model.Stats().Sub(before)
	if d.Prefetches == 0 {
		t.Fatal("cache-first search must prefetch nodes")
	}
	if d.MemFetches > 4 {
		t.Fatalf("too many unprefetched demand misses: %d", d.MemFetches)
	}
}

func TestCacheFirstAggressivePlacementSavesPageFixes(t *testing.T) {
	// A parent and (some of) its children share a page, so a search
	// performs fewer buffer fixes than it has node levels.
	env := treetest.NewEnv(16<<10, 16384)
	tr, err := NewCacheFirst(CacheFirstConfig{Pool: env.Pool, Model: env.Model})
	if err != nil {
		t.Fatal(err)
	}
	es := treetest.GenEntries(1000000, 10, 2)
	if err := tr.Bulkload(es, 1.0); err != nil {
		t.Fatal(err)
	}
	env.Pool.ResetStats()
	const searches = 500
	for i := 0; i < searches; i++ {
		if _, ok, _ := tr.Search(es[(i*9973)%len(es)].Key); !ok {
			t.Fatal("search failed")
		}
	}
	gets := env.Pool.Stats().Gets
	levels := uint64(tr.Height()) * searches
	if gets >= levels {
		t.Fatalf("aggressive placement should save buffer fixes: %d gets for %d node visits", gets, levels)
	}
}

func TestCacheFirstOverflowPagesExist(t *testing.T) {
	// With 23 slots and 69-way fan-out, most leaf parents cannot live
	// with their parent and must land in overflow pages (§4.3.1).
	env := treetest.NewEnv(16<<10, 16384)
	tr, err := NewCacheFirst(CacheFirstConfig{Pool: env.Pool, Model: env.Model})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Bulkload(treetest.GenEntries(1000000, 10, 2), 1.0); err != nil {
		t.Fatal(err)
	}
	overflow := 0
	for _, kind := range tr.pages {
		if kind == cfPageOverflow {
			overflow++
		}
	}
	if overflow == 0 {
		t.Fatal("expected overflow pages for leaf parents")
	}
}

func TestCacheFirstGrowthFromEmpty(t *testing.T) {
	env := treetest.NewEnv(4<<10, 65536)
	tr, err := NewCacheFirst(CacheFirstConfig{Pool: env.Pool, Model: env.Model, EnableJPA: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 30000
	for i := 1; i <= n; i++ {
		k := uint32((i * 2654435761) % 100000000)
		if err := tr.Insert(k, uint32(i)); err != nil {
			t.Fatalf("insert %d (#%d): %v", k, i, err)
		}
		if i%5000 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d inserts: %v", i, err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 3 {
		t.Fatalf("height %d after %d inserts", tr.Height(), n)
	}
}

func TestCacheFirstSpaceOverheadAfterBulkload(t *testing.T) {
	// Figure 16(a): < 5% overhead vs a disk-optimized B+-Tree right
	// after a 100% bulkload.
	env := treetest.NewEnv(16<<10, 65536)
	tr, err := NewCacheFirst(CacheFirstConfig{Pool: env.Pool, Model: env.Model})
	if err != nil {
		t.Fatal(err)
	}
	const n = 500000
	if err := tr.Bulkload(treetest.GenEntries(n, 1, 2), 1.0); err != nil {
		t.Fatal(err)
	}
	baselineCap := (16<<10 - 64) / 8
	baselinePages := (n+baselineCap-1)/baselineCap + 2
	if got := tr.PageCount(); float64(got) > 1.10*float64(baselinePages) {
		t.Fatalf("cache-first uses %d pages vs ~%d baseline", got, baselinePages)
	}
}

// TestCacheFirstReverseScanInPageSplit replays the race a serving-mode
// reverse scan runs into: between its descent to endAt, the leaf node
// that holds hi, and the pin of endAt's page, a structural insert
// splits endAt inside that page. An in-page split does not move the
// relocation epoch, so the scan carries on from the stale endAt while
// the top of the range now sits in a new node chained after it. The
// scan's first page must still deliver every key of the range.
func TestCacheFirstReverseScanInPageSplit(t *testing.T) {
	pool := buffer.NewConcurrentPool(buffer.NewMemStore(4<<10), 512, 4)
	mm := memsim.NewDefault()
	mm.SetConcurrent(true)
	tr, err := NewCacheFirst(CacheFirstConfig{Pool: pool, Model: mm})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Bulkload(treetest.GenEntries(4000, 10, 10), 0.5); err != nil {
		t.Fatal(err)
	}
	// endAt: the first leaf node whose page has a free slot for the
	// split to take.
	var endAt ptr
	var lo, hi idx.Key
	for at := tr.firstLeafPtr(); endAt.isNil(); {
		if at.isNil() {
			t.Fatal("no leaf page has a free slot")
		}
		pg, err := pool.Get(at.pid)
		if err != nil {
			t.Fatal(err)
		}
		if n := tr.count(pg.Data, at.off); n > 1 && tr.hasSlot(pg.Data) {
			endAt, lo, hi = at, tr.key(pg.Data, at.off, 0), tr.key(pg.Data, at.off, n-1)
		}
		at = tr.cNextLeaf(pg.Data, at.off)
		pool.Unpin(pg, false)
	}
	next := func() ptr {
		pg, err := pool.Get(endAt.pid)
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Unpin(pg, false)
		return tr.cNextLeaf(pg.Data, endAt.off)
	}
	e, was := tr.reloc.Load(), next()
	for k := lo + 1; next() == was; k++ {
		if k >= hi {
			t.Fatal("endAt never split")
		}
		if err := tr.Insert(k, k+7); err != nil {
			t.Fatal(err)
		}
	}
	if right := next(); right.pid != endAt.pid || tr.reloc.Load() != e {
		t.Fatalf("want an in-page split with the epoch at %d: right node %v, epoch %d", e, right, tr.reloc.Load())
	}

	var want, got []idx.Key
	if _, err := tr.RangeScan(lo, hi, func(k idx.Key, _ idx.TupleID) bool {
		want = append([]idx.Key{k}, want...)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	pg, err := pool.Get(endAt.pid)
	if err != nil {
		t.Fatal(err)
	}
	s := nodeScan{n: &tr.pbNode, lo: lo, hi: hi, reverse: true, fn: func(k idx.Key, _ idx.TupleID) bool {
		got = append(got, k)
		return true
	}}
	_, err = tr.reverseScanPage(pg, &s, true, endAt)
	pool.Unpin(pg, false)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("reverse scan of [%d,%d] from the stale endAt delivered\n%v\nwant\n%v", lo, hi, got, want)
	}
}

// TestCacheFirstReverseScanStaleDescent covers the other half of that
// race: a node split above the leaves moves no epoch either, and one
// that raced the descent leaves it on an earlier leaf page, here the
// last node of the page before the range's. lastNodeFor must step
// right across the page to the range's last node.
func TestCacheFirstReverseScanStaleDescent(t *testing.T) {
	pool := buffer.NewConcurrentPool(buffer.NewMemStore(4<<10), 512, 4)
	mm := memsim.NewDefault()
	mm.SetConcurrent(true)
	tr, err := NewCacheFirst(CacheFirstConfig{Pool: pool, Model: mm})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Bulkload(treetest.GenEntries(4000, 10, 10), 0.5); err != nil {
		t.Fatal(err)
	}
	// stale: the first node whose successor starts another page; want:
	// that successor, which holds all of [lo, hi].
	var stale, want ptr
	var lo, hi idx.Key
	for at := tr.firstLeafPtr(); want.isNil() && !at.isNil(); {
		pg, err := pool.Get(at.pid)
		if err != nil {
			t.Fatal(err)
		}
		if nx := tr.cNextLeaf(pg.Data, at.off); !nx.isNil() && nx.pid != at.pid {
			stale, want = at, nx
		}
		at = tr.cNextLeaf(pg.Data, at.off)
		pool.Unpin(pg, false)
	}
	if want.isNil() {
		t.Fatal("no leaf node chains into another page")
	}
	pg, err := pool.Get(want.pid)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi = tr.key(pg.Data, want.off, 0), tr.key(pg.Data, want.off, tr.count(pg.Data, want.off)-1)
	pool.Unpin(pg, false)

	got, ok, err := tr.lastNodeFor(stale, hi, tr.reloc.Load())
	if err != nil || !ok {
		t.Fatalf("lastNodeFor: ok=%v err=%v", ok, err)
	}
	if got != want {
		t.Fatalf("lastNodeFor(%v, %d) = %v; want %v, the node holding [%d,%d]", stale, hi, got, want, lo, hi)
	}
	if n := pool.PinnedCount(); n != 0 {
		t.Fatalf("%d pages left pinned", n)
	}
}
