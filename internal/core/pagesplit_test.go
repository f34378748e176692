package core

import (
	"math/rand"
	"testing"

	"repro/internal/treetest"
)

// TestCacheFirstNodePageSplitRelocatesLeafParents forces the Figure
// 9(c) page-split path in a configuration where leaf parents live in
// node pages (128-byte nodes => two full in-page levels per 4 KB page,
// with bitmap-admitted leaf parents), then churns until node pages must
// split and relocate those leaf parents — exercising the back-pointer
// and sibling-chain repairs.
func TestCacheFirstNodePageSplitRelocatesLeafParents(t *testing.T) {
	env := treetest.NewEnv(4<<10, 1<<17)
	tr, err := NewCacheFirst(CacheFirstConfig{
		Pool: env.Pool, Model: env.Model, NodeBytes: 128, EnableJPA: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Height-4 tree with aggressive placement.
	es := treetest.GenEntries(40000, 10, 4)
	if err := tr.Bulkload(es, 0.9); err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 4 {
		t.Fatalf("need height >= 4 to put leaf parents into node pages, got %d", tr.Height())
	}
	// Verify the premise: some leaf parent lives in a node page.
	found := false
	for pid, kind := range tr.pages {
		if kind != cfPageNode {
			continue
		}
		pg, err := env.Pool.Get(pid)
		if err != nil {
			t.Fatal(err)
		}
		for _, off := range tr.pageSlots(pg.Data) {
			if tr.nodeIsLeafParent(pg.Data, off) {
				found = true
			}
		}
		env.Pool.Unpin(pg, false)
	}
	if !found {
		t.Fatal("premise broken: no leaf parent placed in a node page")
	}

	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 60000; i++ {
		k := uint32(rng.Intn(200000))*4 + 11 // disjoint from bulkloaded keys
		if err := tr.Insert(k, k); err != nil {
			t.Fatalf("insert %d (#%d): %v", k, i, err)
		}
		if i%10000 == 9999 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d inserts: %v", i+1, err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Full scan still sees a consistent, ordered chain.
	prev := uint32(0)
	n, err := tr.RangeScan(0, 1<<31, func(k uint32, _ uint32) bool {
		if k < prev {
			t.Fatalf("scan regressed: %d after %d", k, prev)
		}
		prev = k
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 40000+60000 {
		t.Fatalf("scan saw %d entries, want %d", n, 100000)
	}
}

// TestDiskFirstNodeFreeChain exercises the in-page node allocator's
// free chains directly.
func TestDiskFirstNodeFreeChain(t *testing.T) {
	env := treetest.NewEnv(4<<10, 64)
	tr, err := NewDiskFirst(DiskFirstConfig{Pool: env.Pool, Model: env.Model})
	if err != nil {
		t.Fatal(err)
	}
	pg, err := env.Pool.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	defer env.Pool.Unpin(pg, false)
	d := pg.Data
	dfSetNextFree(d, 1)

	// Allocate leaf nodes until the page is exhausted.
	var leaves []int
	for {
		off := tr.allocNode(d, true)
		if off == 0 {
			break
		}
		leaves = append(leaves, off)
	}
	if len(leaves) == 0 {
		t.Fatal("no leaf nodes allocated")
	}
	if tr.freeCount(d, true) != 0 {
		t.Fatalf("free count %d after exhaustion", tr.freeCount(d, true))
	}
	// Free two; they should be reused LIFO.
	tr.freeNode(d, leaves[1], true)
	tr.freeNode(d, leaves[3], true)
	if got := tr.freeCount(d, true); got != 2 {
		t.Fatalf("free count = %d, want 2", got)
	}
	if off := tr.allocNode(d, true); off != leaves[3] {
		t.Fatalf("expected LIFO reuse of %d, got %d", leaves[3], off)
	}
	if off := tr.allocNode(d, true); off != leaves[1] {
		t.Fatalf("expected reuse of %d, got %d", leaves[1], off)
	}
	if off := tr.allocNode(d, true); off != 0 {
		t.Fatalf("allocation should fail again, got %d", off)
	}
	// Nonleaf chain is independent: only the bump remainder (too small
	// for another leaf node) is available to nonleaf allocations.
	wantNon := (tr.pageLines - 1 - len(leaves)*tr.x) / tr.w
	if got := tr.freeCount(d, false); got != wantNon {
		t.Fatalf("nonleaf free count = %d, want %d", got, wantNon)
	}
}

// TestCacheFirstSlotFreeChain does the same for cache-first page slots.
func TestCacheFirstSlotFreeChain(t *testing.T) {
	env := treetest.NewEnv(4<<10, 64)
	tr, err := NewCacheFirst(CacheFirstConfig{Pool: env.Pool, Model: env.Model})
	if err != nil {
		t.Fatal(err)
	}
	pg, err := tr.newPage(pageLeaf)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Pool.Unpin(pg, false)
	d := pg.Data
	var slots []int
	for tr.hasSlot(d) {
		slots = append(slots, tr.allocSlot(d))
	}
	if len(slots) != tr.perPage {
		t.Fatalf("allocated %d slots, want %d", len(slots), tr.perPage)
	}
	if cfNNodes(d) != tr.perPage {
		t.Fatalf("nNodes = %d", cfNNodes(d))
	}
	tr.freeSlot(d, slots[2])
	if !tr.hasSlot(d) {
		t.Fatal("page should have a slot after free")
	}
	if off := tr.allocSlot(d); off != slots[2] {
		t.Fatalf("expected reuse of slot %d, got %d", slots[2], off)
	}
	if tr.hasSlot(d) {
		t.Fatal("page should be full again")
	}
}
