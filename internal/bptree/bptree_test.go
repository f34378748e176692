package bptree

import (
	"fmt"
	"testing"

	"repro/internal/buffer"
	"repro/internal/disksim"
	"repro/internal/idx"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/treetest"
)

// layouts is the table every layout-independent test runs over: the
// plain page, the micro-indexed page at its Table 2 sub-array width,
// and the micro-indexed page at an explicit 128 B width. Each row is a
// Config missing only its Pool and Model.
var layouts = []struct {
	name string
	cfg  Config
}{
	{"plain", Config{}},
	{"micro", Config{MicroIndex: true}},
	{"micro128", Config{MicroIndex: true, SubarrayBytes: 128}},
}

// forLayouts runs fn on every row: the plain row in t itself (the test
// floor tracks its tests by the IDs that gives them), the micro rows
// as subtests named after the row.
func forLayouts(t *testing.T, fn func(t *testing.T, cfg Config)) {
	fn(t, layouts[0].cfg)
	for _, l := range layouts[1:] {
		t.Run(l.name, func(t *testing.T) { fn(t, l.cfg) })
	}
}

func newTree(t *testing.T, cfg Config, pool *buffer.Pool, mm *memsim.Model) *Tree {
	t.Helper()
	cfg.Pool, cfg.Model = pool, mm
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func factory(cfg Config) treetest.Factory {
	return func(t *testing.T, env *treetest.Env) idx.Index { return newTree(t, cfg, env.Pool, env.Model) }
}

func TestConformance4K(t *testing.T) {
	forLayouts(t, func(t *testing.T, cfg Config) { treetest.Run(t, 4<<10, factory(cfg)) })
}

func TestConformance16K(t *testing.T) {
	forLayouts(t, func(t *testing.T, cfg Config) { treetest.Run(t, 16<<10, factory(cfg)) })
}

func TestConformanceJPA(t *testing.T) {
	forLayouts(t, func(t *testing.T, cfg Config) {
		cfg.EnableJPA = true
		treetest.Run(t, 8<<10, factory(cfg))
	})
}

func TestChaos(t *testing.T) {
	forLayouts(t, func(t *testing.T, cfg Config) {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
				treetest.RunChaos(t, 4<<10, factory(cfg), seed, 6000)
			})
		}
	})
}

func TestCapacityMatchesPaperExample(t *testing.T) {
	// §3: "an 8KB page can hold over 1000 entries" with 4-byte keys
	// and 4-byte pointers.
	env := treetest.NewEnv(8<<10, 64)
	tr := newTree(t, Config{}, env.Pool, env.Model)
	if tr.Cap() < 1000 {
		t.Fatalf("8KB page capacity = %d, want > 1000", tr.Cap())
	}
}

func TestRejectsBadSubarray(t *testing.T) {
	env := treetest.NewEnv(4<<10, 16)
	if _, err := New(Config{Pool: env.Pool, Model: env.Model, MicroIndex: true, SubarrayBytes: 100}); err == nil {
		t.Fatal("accepted non-line-multiple sub-array")
	}
}

func TestLayoutIsLineAligned(t *testing.T) {
	for _, l := range layouts {
		env := treetest.NewEnv(16<<10, 16)
		tr := newTree(t, l.cfg, env.Pool, env.Model)
		if tr.keyBase%memsim.LineSize != 0 {
			t.Fatalf("%s: key array not line aligned: offset %d", l.name, tr.keyBase)
		}
		if tr.microOff+4*tr.subsMax > tr.keyBase {
			t.Fatalf("%s: micro index overlaps the key array", l.name)
		}
		if tr.keyBase+4*tr.cap > tr.ptrBase {
			t.Fatalf("%s: key and pointer arrays overlap", l.name)
		}
		if tr.ptrBase+4*tr.cap > 16<<10 {
			t.Fatalf("%s: arrays overflow the page", l.name)
		}
	}
}

func TestBinarySearchTouchesManyLines(t *testing.T) {
	// The paper's motivating observation: a binary search over a
	// page-wide array touches ~log2(n) distinct cache lines.
	env := treetest.NewEnv(8<<10, 4096)
	tr := newTree(t, Config{}, env.Pool, env.Model)
	es := treetest.GenEntries(100000, 10, 2)
	if err := tr.Bulkload(es, 1.0); err != nil {
		t.Fatal(err)
	}
	env.Model.ColdCaches()
	before := env.Model.Stats()
	if _, ok, _ := tr.Search(es[71].Key); !ok {
		t.Fatal("search failed")
	}
	d := env.Model.Stats().Sub(before)
	// Two levels at ~1000 fan-out: expect on the order of 7-20 misses.
	if d.MemFetches < 6 {
		t.Fatalf("expected many cache misses for page-wide binary search, got %d", d.MemFetches)
	}
	if d.Prefetches != 0 {
		t.Fatalf("baseline tree must not prefetch, issued %d", d.Prefetches)
	}
}

func TestSearchTouchesFewerLinesThanPlainBinarySearch(t *testing.T) {
	// The micro index should confine key probes to the micro region
	// plus one sub-array: far fewer distinct lines than a page-wide
	// binary search (the §3 example: 10 probes -> ~7 misses vs 5).
	env := treetest.NewEnv(16<<10, 8192)
	tr := newTree(t, Config{MicroIndex: true}, env.Pool, env.Model)
	es := treetest.GenEntries(300000, 10, 2)
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
		t.Fatal("micro-indexing should prefetch the micro index and sub-arrays")
	}
	if d.MemFetches > 4 {
		t.Fatalf("micro-indexed search demanded %d unprefetched lines", d.MemFetches)
	}
}

func TestUpdateCostDominatedByArrayMovement(t *testing.T) {
	// §4.2.2: micro-indexing "suffers from the same effect" as
	// disk-optimized trees on updates. An insert into a 70%-full tree
	// must cost far more than a search, on either layout.
	forLayouts(t, func(t *testing.T, cfg Config) {
		env := treetest.NewEnv(16<<10, 8192)
		tr := newTree(t, cfg, env.Pool, env.Model)
		es := treetest.GenEntries(200000, 10, 4)
		if err := tr.Bulkload(es, 0.7); err != nil {
			t.Fatal(err)
		}
		const trials = 50
		b0 := env.Model.Stats()
		for i := 0; i < trials; i++ {
			env.Model.ColdCaches()
			if _, ok, _ := tr.Search(es[(i*3947)%len(es)].Key); !ok {
				t.Fatal("search failed")
			}
		}
		searchCost := env.Model.Stats().Sub(b0).Cycles / trials

		b1 := env.Model.Stats()
		for i := 0; i < trials; i++ {
			env.Model.ColdCaches()
			// Odd keys: never collide with the stride-4 bulkloaded keys.
			if err := tr.Insert(uint32(i*7919)*4+101, 1); err != nil {
				t.Fatal(err)
			}
		}
		insertCost := env.Model.Stats().Sub(b1).Cycles / trials
		if insertCost < 3*searchCost {
			t.Fatalf("insert (%d cycles) should dwarf search (%d cycles)", insertCost, searchCost)
		}
	})
}

func TestMicroIndexConsistencyAfterChurn(t *testing.T) {
	forLayouts(t, func(t *testing.T, cfg Config) {
		env := treetest.NewEnv(4<<10, 8192)
		tr := newTree(t, cfg, env.Pool, env.Model)
		es := treetest.GenEntries(5000, 100, 4)
		if err := tr.Bulkload(es, 0.8); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4000; i++ {
			k := uint32(i*7%30000)*4 + 101 // odd offsets: never collide with bulkloaded keys
			if err := tr.Insert(k, k); err != nil {
				t.Fatal(err)
			}
			if i%3 == 0 {
				if _, err := tr.Delete(es[i%len(es)].Key); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// corruptRoot flips one byte of the root page behind the tree's back.
func corruptRoot(t *testing.T, tr *Tree, off int) {
	t.Helper()
	root, _ := tr.RootHeight()
	pg, err := tr.pool.Get(root)
	if err != nil {
		t.Fatal(err)
	}
	pg.Data[off] ^= 0xff
	tr.pool.Unpin(pg, true)
}

func TestCheckInvariantsCatchesDamage(t *testing.T) {
	// A page whose type byte disagrees with its level must fail the
	// check on every layout; so must a micro slot that no longer
	// mirrors its sub-array's first key.
	forLayouts(t, func(t *testing.T, cfg Config) {
		build := func() *Tree {
			env := treetest.NewEnv(4<<10, 1024)
			tr := newTree(t, cfg, env.Pool, env.Model)
			if err := tr.Bulkload(treetest.GenEntries(20000, 10, 2), 0.9); err != nil {
				t.Fatal(err)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			return tr
		}
		tr := build()
		corruptRoot(t, tr, offType)
		if err := tr.CheckInvariants(); err == nil {
			t.Fatal("flipped page-type byte passed CheckInvariants")
		}
		if !cfg.MicroIndex {
			return
		}
		tr = build()
		corruptRoot(t, tr, tr.microOff)
		if err := tr.CheckInvariants(); err == nil {
			t.Fatal("damaged micro index passed CheckInvariants")
		}
	})
}

func TestBulkloadHeights(t *testing.T) {
	forLayouts(t, func(t *testing.T, cfg Config) {
		env := treetest.NewEnv(4<<10, 65536)
		tr := newTree(t, cfg, env.Pool, env.Model)
		cap := tr.Cap()

		if err := tr.Bulkload(treetest.GenEntries(cap, 1, 1), 1.0); err != nil {
			t.Fatal(err)
		}
		if tr.Height() != 1 {
			t.Fatalf("height = %d, want 1 for exactly one page", tr.Height())
		}
		if err := tr.Bulkload(treetest.GenEntries(cap+1, 1, 1), 1.0); err != nil {
			t.Fatal(err)
		}
		if tr.Height() != 2 {
			t.Fatalf("height = %d, want 2", tr.Height())
		}
		if tr.PageCount() != 3 {
			t.Fatalf("pages = %d, want 3 (two leaves + root)", tr.PageCount())
		}
	})
}

func TestBulkloadFreesOldPages(t *testing.T) {
	forLayouts(t, func(t *testing.T, cfg Config) {
		env := treetest.NewEnv(4<<10, 65536)
		tr := newTree(t, cfg, env.Pool, env.Model)
		if err := tr.Bulkload(treetest.GenEntries(10000, 1, 2), 1.0); err != nil {
			t.Fatal(err)
		}
		first := tr.PageCount()
		if err := tr.Bulkload(treetest.GenEntries(10000, 1, 2), 1.0); err != nil {
			t.Fatal(err)
		}
		if got := tr.PageCount(); got != first {
			t.Fatalf("page count changed across rebulkload: %d -> %d", first, got)
		}
		if got := int(env.Pool.MaxPageID()); got != first {
			t.Fatalf("rebulkload leaked pages: max pid %d, pages %d", got, first)
		}
	})
}

func TestSpaceUtilization(t *testing.T) {
	forLayouts(t, func(t *testing.T, cfg Config) {
		env := treetest.NewEnv(16<<10, 65536)
		tr := newTree(t, cfg, env.Pool, env.Model)
		const n = 200000
		if err := tr.Bulkload(treetest.GenEntries(n, 1, 2), 1.0); err != nil {
			t.Fatal(err)
		}
		minLeaves := (n + tr.Cap() - 1) / tr.Cap()
		if got := tr.PageCount(); got > minLeaves+minLeaves/tr.Cap()+3 {
			t.Fatalf("page count %d too high for %d leaves", got, minLeaves)
		}
	})
}

func TestJPAPrefetchReducesScanIOTime(t *testing.T) {
	build := func(jpa bool) (*Tree, *buffer.Pool, *disksim.Array) {
		arr, err := disksim.New(disksim.DefaultConfig(8, 4<<10))
		if err != nil {
			t.Fatal(err)
		}
		pool := buffer.NewPool(buffer.NewDiskStore(arr), 512)
		mm := memsim.NewDefault()
		pool.AttachModel(mm)
		tr := newTree(t, Config{EnableJPA: jpa, PrefetchWindow: 32}, pool, mm)
		if err := tr.Bulkload(treetest.GenEntries(120000, 10, 2), 1.0); err != nil {
			t.Fatal(err)
		}
		if err := pool.DropAll(); err != nil {
			t.Fatal(err)
		}
		arr.Reset()
		return tr, pool, arr
	}

	scanMicros := func(jpa bool) uint64 {
		tr, pool, _ := build(jpa)
		start := pool.Clock()
		n, err := tr.RangeScan(10, 10+2*100000, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n < 100000 {
			t.Fatalf("scan visited %d entries", n)
		}
		return pool.Clock() - start
	}

	plain := scanMicros(false)
	pf := scanMicros(true)
	if pf*2 > plain {
		t.Fatalf("JPA prefetch should speed the scan at least 2x on 8 disks: plain=%dµs pf=%dµs", plain, pf)
	}
}

func TestJPADoesNotOvershoot(t *testing.T) {
	arr, err := disksim.New(disksim.DefaultConfig(4, 4<<10))
	if err != nil {
		t.Fatal(err)
	}
	pool := buffer.NewPool(buffer.NewDiskStore(arr), 2048)
	mm := memsim.NewDefault()
	tr := newTree(t, Config{EnableJPA: true, PrefetchWindow: 64}, pool, mm)
	es := treetest.GenEntries(50000, 10, 2)
	if err := tr.Bulkload(es, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := pool.DropAll(); err != nil {
		t.Fatal(err)
	}
	pool.ResetStats()

	// A short range spanning ~2 leaf pages must not prefetch far past
	// the end page even with a large window.
	startIdx := 10000
	endIdx := startIdx + tr.Cap() // about two pages
	if _, err := tr.RangeScan(es[startIdx].Key, es[endIdx].Key, nil); err != nil {
		t.Fatal(err)
	}
	s := pool.Stats()
	if s.PrefetchIssue > 4 {
		t.Fatalf("short scan prefetched %d pages; overshooting", s.PrefetchIssue)
	}
}

// TestJPAPrefetchesEndPage: the end page of a forward scan is looked up
// with <= comparisons, so a range that ends exactly on a page's first
// key still prefetches that page instead of demand-missing it; and a
// one-page tree, which has no jump-pointer array, prefetches nothing.
func TestJPAPrefetchesEndPage(t *testing.T) {
	forLayouts(t, func(t *testing.T, cfg Config) {
		cfg.EnableJPA = true
		pool := buffer.NewPool(buffer.NewMemStore(4<<10), 256)
		mm := memsim.NewDefault()
		pool.AttachModel(mm)
		tr := newTree(t, cfg, pool, mm)
		es := treetest.GenEntries(20*tr.Cap(), 10, 2) // unique keys, 20 full pages
		if err := tr.Bulkload(es, 1.0); err != nil {
			t.Fatal(err)
		}
		endKey := es[7*tr.Cap()].Key // the first key of the eighth page
		root, height := tr.RootHeight()
		endLeaf, err := tr.LeafFor(root, height, endKey, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.DropAll(); err != nil {
			t.Fatal(err)
		}
		trace := obs.NewTracer(1 << 10)
		pool.AttachTracer(trace)
		if n, err := tr.RangeScan(es[5*tr.Cap()+3].Key, endKey, nil); err != nil || n != 2*tr.Cap()-2 {
			t.Fatalf("scan = (%d, %v), want %d entries", n, err, 2*tr.Cap()-2)
		}
		prefetched := false
		for _, e := range trace.Events(nil) {
			prefetched = prefetched || e.Kind == obs.EvPrefetchIssue && e.PID == endLeaf
			if e.Kind == obs.EvDemandMiss && e.PID == endLeaf {
				t.Fatalf("the end page %d was demand-missed", endLeaf)
			}
		}
		if !prefetched {
			t.Fatalf("no prefetch was issued for the end page %d", endLeaf)
		}

		if err := tr.Bulkload(es[:tr.Cap()/2], 1.0); err != nil {
			t.Fatal(err)
		}
		if err := pool.DropAll(); err != nil {
			t.Fatal(err)
		}
		pool.ResetStats()
		if _, err := tr.RangeScan(0, ^idx.Key(0), nil); err != nil {
			t.Fatal(err)
		}
		if s := pool.Stats(); s.PrefetchIssue != 0 || s.DemandMisses != 1 {
			t.Fatalf("one-page tree: scan issued %d prefetches and %d demand misses, want 0 and 1", s.PrefetchIssue, s.DemandMisses)
		}
	})
}

func TestSearchIOCountsMatchHeight(t *testing.T) {
	// Figure 17 methodology: clear the pool, run searches, count misses.
	forLayouts(t, func(t *testing.T, cfg Config) {
		arr, err := disksim.New(disksim.DefaultConfig(2, 8<<10))
		if err != nil {
			t.Fatal(err)
		}
		pool := buffer.NewPool(buffer.NewDiskStore(arr), 4096)
		tr := newTree(t, cfg, pool, memsim.NewDefault())
		es := treetest.GenEntries(300000, 10, 2)
		if err := tr.Bulkload(es, 1.0); err != nil {
			t.Fatal(err)
		}
		if err := pool.DropAll(); err != nil {
			t.Fatal(err)
		}
		pool.ResetStats()
		if _, ok, _ := tr.Search(es[1234].Key); !ok {
			t.Fatal("search failed")
		}
		if got, want := int(pool.Stats().DemandMisses), tr.Height(); got != want {
			t.Fatalf("first cold search missed %d pages, want height %d", got, want)
		}
	})
}

func TestDuplicateKeys(t *testing.T) {
	forLayouts(t, func(t *testing.T, cfg Config) {
		env := treetest.NewEnv(4<<10, 8192)
		tr := newTree(t, cfg, env.Pool, env.Model)
		for i := 0; i < 2000; i++ {
			if err := tr.Insert(42, uint32(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if n, _ := tr.RangeScan(42, 42, nil); n != 2000 {
			t.Fatalf("scan of duplicate key sees %d, want 2000", n)
		}
		if _, ok, _ := tr.Search(42); !ok {
			t.Fatal("duplicate key not found")
		}
	})
}
