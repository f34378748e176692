//go:build !race

// These tests assert properties of the optimistic read path that only
// hold when it is actually enabled; under the race detector it turns
// itself off (seqlock-style reads are intentional data races), so the
// whole file is compiled out there. The -race counterpart is the
// conformance matrix in optimistic_test.go.

package fpbtree

import (
	"fmt"
	"sync"
	"testing"
)

// TestOptimisticReadOnlyLatchFree is the acceptance check for the
// latch-free claim: a read-only search phase in the default serving
// mode must take zero shared latches and zero locked pool gets beyond
// the bulkload/warmup baseline, and never fall back to the latched
// descent.
func TestOptimisticReadOnlyLatchFree(t *testing.T) {
	const keys = 3000
	const searchesPerReader = 4000
	const readers = 4
	for _, v := range []Variant{DiskFirst, CacheFirst, DiskOptimized, MicroIndex} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			tr, err := New(
				WithVariant(v),
				WithConcurrency(readers),
				WithPageSize(4<<10),
				WithBufferPages(1024),
			)
			if err != nil {
				t.Fatal(err)
			}
			entries := make([]Entry, keys)
			for i := range entries {
				k := Key(2*i + 1)
				entries[i] = Entry{Key: k, TID: TupleID(k + 7)}
			}
			if err := tr.Bulkload(entries, 0.9); err != nil {
				t.Fatal(err)
			}
			// Warm the pool so the measured phase has no misses
			// (a miss legitimately takes the shard lock).
			if _, err := tr.RangeScan(0, ^Key(0), nil); err != nil {
				t.Fatal(err)
			}
			base := tr.MetricsSnapshot()

			var wg sync.WaitGroup
			errs := make(chan error, readers)
			for w := 0; w < readers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					x := uint32(99*w + 7)
					for n := 0; n < searchesPerReader; n++ {
						x = x*1664525 + 1013904223
						k := Key(x%keys)*2 + 1
						tid, ok, err := tr.Search(k)
						if err != nil {
							errs <- err
							return
						}
						if !ok || tid != TupleID(k+7) {
							errs <- fmt.Errorf("Search(%d) = (%d,%v), want (%d,true)", k, tid, ok, k+7)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			snap := tr.MetricsSnapshot()
			delta := func(name string) uint64 { return snap.Counters[name] - base.Counters[name] }
			if shared := delta("latch.shared_acquisitions"); shared != 0 {
				t.Errorf("optimistic read-only phase took %d shared latches, want 0", shared)
			}
			if locked := delta("pool.shard.locked_gets"); locked != 0 {
				t.Errorf("optimistic read-only phase took %d locked pool gets, want 0", locked)
			}
			if fallbacks := delta("latch.opt_fallbacks"); fallbacks != 0 {
				t.Errorf("optimistic read-only phase fell back %d times with no writers", fallbacks)
			}
		})
	}
}

// TestOptimisticSplitStormBounded drives a split storm (a writer
// inserting a dense ascending run) against optimistic readers on every
// variant: every read must stay correct despite concurrent in-page
// reorganization and page splits, and the restart machinery must stay
// bounded — no search spins more than the restart budget before
// falling back (the counters prove the bound: restarts never exceed
// budget × attempts-with-restarts, and the test terminating at all is
// the liveness half). This is the regression test for torn leaf-chain
// reads and for unbounded restart loops.
func TestOptimisticSplitStormBounded(t *testing.T) {
	const (
		oddKeys  = 2000
		inserts  = 6000
		searches = 8000
	)
	for _, v := range []Variant{DiskFirst, CacheFirst, DiskOptimized, MicroIndex} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			tr, err := New(
				WithVariant(v),
				WithConcurrency(3),
				WithPageSize(4<<10),
				WithBufferPages(1024),
			)
			if err != nil {
				t.Fatal(err)
			}
			entries := make([]Entry, oddKeys)
			for i := range entries {
				k := Key(2*i + 1)
				entries[i] = Entry{Key: k, TID: TupleID(k + 7)}
			}
			// Bulkload full pages so the insert run splits constantly.
			if err := tr.Bulkload(entries, 1.0); err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			errs := make(chan error, 3)
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					x := uint32(77*w + 13)
					for n := 0; n < searches; n++ {
						x = x*1664525 + 1013904223
						k := Key(x%oddKeys)*2 + 1
						tid, ok, err := tr.Search(k)
						if err != nil {
							errs <- err
							return
						}
						if !ok || tid != TupleID(k+7) {
							errs <- fmt.Errorf("Search(%d) = (%d,%v) mid-storm, want (%d,true)", k, tid, ok, k+7)
							return
						}
					}
				}(w)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < inserts; n++ {
					k := Key(2*oddKeys + 2 + 2*n) // dense even run above the bulk range
					if err := tr.Insert(k, TupleID(k+7)); err != nil {
						errs <- err
						return
					}
				}
			}()
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			if n := tr.PinnedPages(); n != 0 {
				t.Fatalf("%d pinned pages leaked", n)
			}
			snap := tr.MetricsSnapshot()
			restarts := snap.Counters["latch.opt_restarts"]
			fallbacks := snap.Counters["latch.opt_fallbacks"]
			// The restart budget is 8 per lookup: across 2×searches
			// lookups the counter can never exceed budget × lookups,
			// and each fallback accounts for a full budget of restarts.
			totalLookups := uint64(2 * searches)
			if restarts > 8*totalLookups {
				t.Errorf("opt_restarts = %d exceeds the 8-per-lookup budget over %d lookups", restarts, totalLookups)
			}
			if fallbacks > totalLookups {
				t.Errorf("opt_fallbacks = %d exceeds lookup count %d", fallbacks, totalLookups)
			}
			t.Logf("%s: %d opt restarts, %d fallbacks over %d lookups under split storm", v, restarts, fallbacks, totalLookups)
		})
	}
}

// TestOptimisticColdPoolFallsBackOnce: a non-resident page is not
// interference. A lookup that meets one must leave the restart budget
// unspent and go straight to the latched path, which pays the read, so
// over a cold pool with no writers there are no restarts at all and
// exactly one fallback per page read in. (The first lookup warms the
// nonleaf path, so each later miss is one leaf page.)
func TestOptimisticColdPoolFallsBackOnce(t *testing.T) {
	const keys = 3000
	for _, v := range []Variant{DiskFirst, CacheFirst, DiskOptimized, MicroIndex} {
		t.Run(v.String(), func(t *testing.T) {
			tr, err := New(WithVariant(v), WithConcurrency(2), WithPageSize(4<<10), WithBufferPages(1024))
			if err != nil {
				t.Fatal(err)
			}
			entries := make([]Entry, keys)
			for i := range entries {
				k := Key(2*i + 1)
				entries[i] = Entry{Key: k, TID: TupleID(k + 7)}
			}
			if err := tr.Bulkload(entries, 0.9); err != nil {
				t.Fatal(err)
			}
			if tr.Height() != 2 {
				t.Fatalf("height %d, want 2 (one nonleaf level)", tr.Height())
			}
			if err := tr.DropBufferPool(); err != nil {
				t.Fatal(err)
			}
			search := func(i int) {
				k := entries[i].Key
				if tid, ok, err := tr.Search(k); err != nil || !ok || tid != TupleID(k+7) {
					t.Fatalf("Search(%d) = (%d, %v, %v), want (%d, true, nil)", k, tid, ok, err, k+7)
				}
			}
			search(0)
			pass := func() (restarts, fallbacks, misses uint64) {
				base, b0 := tr.MetricsSnapshot(), tr.BufferStats()
				for i := range entries {
					search(i)
				}
				snap, b1 := tr.MetricsSnapshot(), tr.BufferStats()
				return snap.Counters["latch.opt_restarts"] - base.Counters["latch.opt_restarts"],
					snap.Counters["latch.opt_fallbacks"] - base.Counters["latch.opt_fallbacks"],
					b1.DemandMisses - b0.DemandMisses
			}
			restarts, fallbacks, misses := pass()
			if restarts != 0 {
				t.Errorf("cold pool: %d restarts, want 0", restarts)
			}
			if fallbacks == 0 || fallbacks != misses {
				t.Errorf("cold pool: %d fallbacks for %d misses, want equal and nonzero", fallbacks, misses)
			}
			restarts, fallbacks, misses = pass()
			if restarts != 0 || fallbacks != 0 || misses != 0 {
				t.Errorf("warm pool: %d restarts, %d fallbacks, %d misses, want none", restarts, fallbacks, misses)
			}
		})
	}
}
