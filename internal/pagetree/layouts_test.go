package pagetree_test

import (
	"math/rand"
	"testing"

	"repro/internal/bptree"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/idx"
	"repro/internal/memsim"
	"repro/internal/pagetree"
)

// layoutRows is every Layout the protocol serves. window > 0 turns
// jump-pointer prefetching on with that many leaf pages in flight.
var layoutRows = []struct {
	name string
	make func(pool *buffer.Pool, mm *memsim.Model, window int) (pagetree.Layout, error)
}{
	{"plain", func(p *buffer.Pool, mm *memsim.Model, w int) (pagetree.Layout, error) {
		return bptree.New(bptree.Config{Pool: p, Model: mm, EnableJPA: w > 0, PrefetchWindow: w})
	}},
	{"micro", func(p *buffer.Pool, mm *memsim.Model, w int) (pagetree.Layout, error) {
		return bptree.New(bptree.Config{Pool: p, Model: mm, MicroIndex: true, EnableJPA: w > 0, PrefetchWindow: w})
	}},
	{"disk-first", func(p *buffer.Pool, mm *memsim.Model, w int) (pagetree.Layout, error) {
		return core.NewDiskFirst(core.DiskFirstConfig{Pool: p, Model: mm, EnableJPA: w > 0, PrefetchWindow: w})
	}},
	{"disk-first-gapped", func(p *buffer.Pool, mm *memsim.Model, w int) (pagetree.Layout, error) {
		return core.NewDiskFirst(core.DiskFirstConfig{Pool: p, Model: mm, GappedLeaves: true, EnableJPA: w > 0, PrefetchWindow: w})
	}},
}

// TestChildForOptAgrees: the latch-free descent must route exactly like
// the latched one. On every layout, over a nonleaf page filled to its
// bound, ChildFor on a snapshot of the page's bytes (a zero Addr, as
// the latch-free descent passes it) names the child ChildFor on the
// pinned page names for keys below, between, on and above the
// separators, under both comparisons, and both report below exactly
// when the key was clamped.
func TestChildForOptAgrees(t *testing.T) {
	for _, row := range layoutRows {
		mm := memsim.NewDefault()
		pool := buffer.NewPool(buffer.NewMemStore(4<<10), 4)
		pool.AttachModel(mm)
		lay, err := row.make(pool, mm, 0)
		if err != nil {
			t.Fatal(err)
		}
		pg, err := pool.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		if err := lay.InitRoot(pg.Data, 1, 100, 1001, 200, 1002); err != nil {
			t.Fatal(err)
		}
		top := idx.Key(300)
		for ; ; top += 100 {
			if ok, err := lay.InsertOnePage(pg, top, uint32(top)); err != nil {
				t.Fatal(err)
			} else if !ok {
				break
			}
		}
		for k := idx.Key(90); k < top+100; k += 5 {
			for _, lt := range []bool{false, true} {
				want, wantBelow := lay.ChildFor(pg, k, lt)
				got, below := lay.ChildFor(buffer.Page{Data: pg.Data}, k, lt)
				if clamped := k < 100 || (lt && k == 100); got != want || below != clamped || wantBelow != clamped {
					t.Fatalf("%s: ChildFor(%d, lt=%v) = (%d, %v) on a snapshot, (%d, %v) pinned, clamped = %v", row.name, k, lt, got, below, want, wantBelow, clamped)
				}
			}
		}
		pool.Unpin(pg, true)
	}
}

// TestSafeImpliesInsertFits is the safe-node rule as a property: on
// every layout, for leaf and nonleaf pages filled in several key
// orders from empty to full, whenever Safe says a page can take one
// more entry the next InsertOnePage does take it, and InsertOnePage
// never allocates (splits) — crabbing has by then released every latch
// a split would need.
func TestSafeImpliesInsertFits(t *testing.T) {
	orders := map[string]func(rng *rand.Rand, i int) idx.Key{
		"ascending":  func(_ *rand.Rand, i int) idx.Key { return idx.Key(10 + i) },
		"descending": func(_ *rand.Rand, i int) idx.Key { return idx.Key(1_000_000 - i) },
		"random":     func(rng *rand.Rand, _ int) idx.Key { return idx.Key(10 + rng.Intn(1_000_000)) },
		"two-runs": func(_ *rand.Rand, i int) idx.Key {
			if i%2 == 0 {
				return idx.Key(10 + i)
			}
			return idx.Key(500_000 + i)
		},
		"duplicates": func(rng *rand.Rand, _ int) idx.Key { return idx.Key(10 + rng.Intn(5)) },
	}
	for _, row := range layoutRows {
		for _, pageSize := range []int{1 << 10, 4 << 10} {
			for order, key := range orders {
				for _, leaf := range []bool{true, false} {
					mm := memsim.NewDefault()
					pool := buffer.NewPool(buffer.NewMemStore(pageSize), 4)
					pool.AttachModel(mm)
					lay, err := row.make(pool, mm, 0)
					if err != nil {
						t.Fatal(err)
					}
					pg, err := pool.NewPage()
					if err != nil {
						t.Fatal(err)
					}
					n := 0
					if leaf {
						err = lay.InitLeafRoot(pg.Data)
					} else {
						err = lay.InitRoot(pg.Data, 1, 1, 101, 5, 102)
						n = 2
					}
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(int64(pageSize)))
					sawUnsafe := false
					// Until the page has refused 64 keys in a row: a page
					// past its safe bound may still have room for some.
					for i, refused := 0, 0; refused < 64; i++ {
						safe := lay.Safe(pg.Data)
						sawUnsafe = sawUnsafe || !safe
						pages := pool.MaxPageID()
						k := key(rng, i)
						ok, err := lay.InsertOnePage(pg, k, uint32(1000+i))
						if pool.MaxPageID() != pages {
							t.Fatalf("%s %d B %s leaf=%v: InsertOnePage allocated a page at %d entries", row.name, pageSize, order, leaf, n)
						}
						if safe && (!ok || err != nil) {
							t.Fatalf("%s %d B %s leaf=%v: page with %d entries is safe but InsertOnePage(%d) = (%v, %v)", row.name, pageSize, order, leaf, n, k, ok, err)
						}
						if err != nil {
							t.Fatalf("%s %d B %s leaf=%v: InsertOnePage at %d entries: %v", row.name, pageSize, order, leaf, n, err)
						}
						if ok {
							n, refused = n+1, 0
						} else {
							refused++
						}
					}
					if !sawUnsafe || n < 4 {
						t.Fatalf("%s %d B %s leaf=%v: page refused an insert at %d entries without ever reporting unsafe", row.name, pageSize, order, leaf, n)
					}
					pool.Unpin(pg, true)
				}
			}
		}
	}
}
