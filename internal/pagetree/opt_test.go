package pagetree

import (
	"runtime"
	"testing"

	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/obs"
)

// latchCounters registers the pool's latch table with a fresh registry
// and returns a reader of its counters.
func latchCounters(pool *buffer.Pool) func(name string) uint64 {
	reg := obs.NewRegistry()
	pool.Latches().RegisterMetrics(reg)
	return func(name string) uint64 { return reg.Snapshot().Counters["latch."+name] }
}

// TestLeafWriteRevalidatesParent splits a page between a leaf-only
// writer's descent and the moment its leaf latch lands: the writer must
// notice that its view of the parent is stale, give the leaf back
// untouched and finish on the crabbing path.
//
// The tree is root [10→L, 30→R] over L = [10 20] and R = [30 40 50 60].
// The test holds L's latch, so Insert(15) descends latch-free through
// the root and parks on L; Insert(70) then finds R full, crabs, splits
// it and installs the separator in the root; only then is L released.
func TestLeafWriteRevalidatesParent(t *testing.T) {
	pool := buffer.NewConcurrentPool(buffer.NewMemStore(fakePageSize), 64, 4)
	f := newFake(pool)
	if !f.Opt() {
		t.Skip("the latch-free protocol is compiled out under the race detector")
	}
	count := latchCounters(pool)
	want := []idx.Key{10, 20, 30, 40, 50, 60}
	for _, k := range want {
		if err := f.Insert(k, k+7); err != nil {
			t.Fatal(err)
		}
	}
	if h := f.Height(); h != 2 {
		t.Fatalf("height %d, want 2", h)
	}
	// The sixth insert met a two-level tree and a leaf with room.
	if got := count("opt_writes"); got != 1 {
		t.Fatalf("opt_writes = %d after the setup, want 1 (the insert of 60)", got)
	}

	held, err := pool.GetX(f.FirstLeaf())
	if err != nil {
		t.Fatal(err)
	}
	waits := count("writer_waits")
	done := make(chan error, 1)
	go func() { done <- f.Insert(15, 15+7) }()
	for count("writer_waits") == waits {
		runtime.Gosched() // until the writer is spinning on L's latch
	}
	leafOnly, structural := count("opt_writes"), count("opt_write_fallbacks")
	if err := f.Insert(70, 70+7); err != nil {
		t.Fatal(err)
	}
	if f.splits.Load() != 2 {
		t.Fatalf("%d splits, want 2 (the root leaf, then R)", f.splits.Load())
	}
	pool.Unpin(held, false)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if lo, st := count("opt_writes")-leafOnly, count("opt_write_fallbacks")-structural; lo != 0 || st != 2 {
		t.Fatalf("%d leaf-only and %d structural inserts, want 0 and 2 (70 split R; 15 saw the root change)", lo, st)
	}
	f.check(t, append(want, 15, 70))

	// With nothing in the way the same insert holds one latch.
	excl := count("exclusive_acquisitions")
	if err := f.Insert(16, 16+7); err != nil {
		t.Fatal(err)
	}
	if got := count("exclusive_acquisitions") - excl; got != 1 || count("opt_writes") != leafOnly+1 {
		t.Fatalf("quiet insert: %d exclusive latches, opt_writes %d → %d; want one latch, one leaf-only write", got, leafOnly, count("opt_writes"))
	}
	f.check(t, append(want, 15, 16, 70))
}

// TestLeafWriteDeclines covers the fall-throughs that need no race: a
// tree that is one leaf, a key below the leftmost separator (only the
// crabbing descent lowers it), and a leaf that cannot take another
// entry. Each insert must land, on the path the comment names.
func TestLeafWriteDeclines(t *testing.T) {
	pool := buffer.NewConcurrentPool(buffer.NewMemStore(fakePageSize), 64, 4)
	f := newFake(pool)
	if !f.Opt() {
		t.Skip("the latch-free protocol is compiled out under the race detector")
	}
	count := latchCounters(pool)
	var want []idx.Key
	insert := func(what string, k idx.Key, leafOnly bool) {
		t.Helper()
		lo, st := count("opt_writes"), count("opt_write_fallbacks")
		if err := f.Insert(k, k+7); err != nil {
			t.Fatal(err)
		}
		want = append(want, k)
		if b2u(leafOnly) != count("opt_writes")-lo || b2u(!leafOnly) != count("opt_write_fallbacks")-st {
			t.Fatalf("%s: insert of %d: leaf-only path = %v, want %v", what, k, !leafOnly, leafOnly)
		}
	}
	for _, k := range []idx.Key{10, 20, 30, 40} {
		insert("single-leaf tree", k, false)
	}
	insert("full root leaf", 50, false) // → root [10→(10 20), 30→(30 40 50)]
	insert("below the leftmost separator", 5, false)
	insert("leaf with room", 60, true)
	insert("full leaf", 70, false)
	insert("leaf with room", 6, true)
	f.check(t, want)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
