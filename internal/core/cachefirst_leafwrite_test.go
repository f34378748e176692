package core

import (
	"runtime"
	"testing"

	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/memsim"
	"repro/internal/obs"
)

// TestCacheFirstLeafWriteEpoch forces the two fall-throughs that only
// cache-first has. A relocation in flight (odd epoch) sends the write
// to wMu before it descends. A relocation that completes between the
// descent and the leaf latch — here: the test holds the leaf page's
// latch, lets the writer park on it, and moves the epoch by two — must
// be noticed once the latch lands, because the ⟨pid, off⟩ the writer
// carries may by then name a freed or reused slot; the page goes back
// untouched and the insert finishes under wMu.
func TestCacheFirstLeafWriteEpoch(t *testing.T) {
	pool := buffer.NewConcurrentPool(buffer.NewMemStore(4<<10), 512, 4)
	mm := memsim.NewDefault()
	mm.SetConcurrent(true)
	tr, err := NewCacheFirst(CacheFirstConfig{Pool: pool, Model: mm})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.opt {
		t.Skip("the latch-free protocol is compiled out under the race detector")
	}
	entries := make([]idx.Entry, 4000)
	for i := range entries {
		entries[i] = idx.Entry{Key: idx.Key(2*i + 1), TID: idx.TupleID(2*i + 8)}
	}
	if err := tr.Bulkload(entries, 0.6); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	pool.Latches().RegisterMetrics(reg)
	count := func(name string) uint64 { return reg.Snapshot().Counters["latch."+name] }
	// insert runs one Insert and reports which path finished it.
	insert := func(k idx.Key, during func()) (leafOnly, structural uint64) {
		t.Helper()
		lo, st := count("opt_writes"), count("opt_write_fallbacks")
		done := make(chan error, 1)
		go func() { done <- tr.Insert(k, k+7) }()
		if during != nil {
			during()
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		return count("opt_writes") - lo, count("opt_write_fallbacks") - st
	}

	if lo, st := insert(1000, nil); lo != 1 || st != 0 {
		t.Fatalf("quiet insert: %d leaf-only, %d structural; want 1, 0", lo, st)
	}

	tr.relocBegin()
	if lo, st := insert(2000, nil); lo != 0 || st != 1 {
		t.Fatalf("insert under an odd epoch: %d leaf-only, %d structural; want 0, 1", lo, st)
	}
	tr.relocEnd()

	leaf, _, _, st := tr.leafNodeForOpt(3000, false, tr.reloc.Load())
	if st != buffer.OptDone || leaf.isNil() {
		t.Fatalf("leafNodeForOpt(3000) = (%v, %v)", leaf, st)
	}
	held, err := pool.GetX(leaf.pid)
	if err != nil {
		t.Fatal(err)
	}
	lo, st2 := insert(3000, func() {
		for waits := count("writer_waits"); count("writer_waits") == waits; {
			runtime.Gosched() // until the writer is spinning on the leaf's latch
		}
		tr.relocBegin()
		tr.relocEnd()
		pool.Unpin(held, false)
	})
	if lo != 0 || st2 != 1 {
		t.Fatalf("insert across a relocation: %d leaf-only, %d structural; want 0, 1", lo, st2)
	}

	for _, k := range []idx.Key{1000, 2000, 3000} {
		if tid, ok, err := tr.Search(k); err != nil || !ok || tid != k+7 {
			t.Fatalf("Search(%d) = (%d, %v, %v)", k, tid, ok, err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n := pool.PinnedCount(); n != 0 {
		t.Fatalf("%d pages left pinned", n)
	}
}
