//go:build !race

// Assertions about the leaf-only write path that only hold where it is
// live: under the race detector the whole optimistic protocol turns
// itself off and every write takes the structural path (the workloads of
// leafwrite_test.go run there too).

package fpbtree

import (
	"sync"
	"testing"
)

// latchDelta snapshots the latch counters and returns a function that
// reports how far one has moved since.
func latchDelta(tr *Tree) func(name string) uint64 {
	base := tr.MetricsSnapshot().Counters
	return func(name string) uint64 { return tr.MetricsSnapshot().Counters["latch."+name] - base["latch."+name] }
}

// TestLeafWriteOneLatchPerWrite is the acceptance check for "an insert
// touches one node" at the latch level: over a run in which no page or
// node can split, with two writers at once, every Insert and every
// Delete takes exactly one exclusive latch and no shared one, and none
// of them leaves the leaf-only path. (No reader runs beside them: one
// that loses its eight restarts to a descheduled writer falls back to
// shared latches, by design.)
func TestLeafWriteOneLatchPerWrite(t *testing.T) {
	const (
		oddKeys   = 6000
		perWriter = 1000
	)
	for _, v := range leafWriteVariants {
		t.Run(v.String(), func(t *testing.T) {
			// Half-full pages and nodes: 2,000 scattered inserts fill none.
			tr := bulkOdd(t, v, oddKeys, 0.5, 2)
			delta := latchDelta(tr)
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						// Evens spread over the whole range, disjoint by
						// writer; never below the smallest key.
						k := Key(12*i + 2 + 6*w)
						if err := tr.Insert(k, TupleID(k+7)); err != nil {
							t.Errorf("Insert(%d): %v", k, err)
							return
						}
						if i%2 == 0 {
							if ok, err := tr.Delete(k); err != nil || !ok {
								t.Errorf("Delete(%d) = (%v, %v)", k, ok, err)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			const writes = 2 * (perWriter + perWriter/2)
			if got := delta("exclusive_acquisitions"); got != writes {
				t.Errorf("%d writes took %d exclusive latches, want one each", writes, got)
			}
			if got := delta("shared_acquisitions"); got != 0 {
				t.Errorf("%d writes took %d shared latches, want 0", writes, got)
			}
			if got := delta("opt_writes"); got != writes {
				t.Errorf("opt_writes grew by %d over %d writes", got, writes)
			}
			if got := delta("opt_write_fallbacks"); got != 0 {
				t.Errorf("%d writes took the structural path with nothing to split", got)
			}
			if n := tr.PinnedPages(); n != 0 {
				t.Fatalf("%d pages left pinned", n)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLeafWriteFallThroughs forces the cases the leaf-only path must
// decline, one at a time on a quiet tree, and checks that each write
// lands on the structural path (opt_write_fallbacks grows by one, the
// leaf-only count does not move) with the right answer — and that the
// very next ordinary write is leaf-only again.
func TestLeafWriteFallThroughs(t *testing.T) {
	const oddKeys = 6000
	for _, v := range leafWriteVariants {
		t.Run(v.String(), func(t *testing.T) {
			// structural runs op and requires it to have gone structural.
			structural := func(tr *Tree, what string, op func()) {
				t.Helper()
				delta := latchDelta(tr)
				op()
				if lo, st := delta("opt_writes"), delta("opt_write_fallbacks"); lo != 0 || st != 1 {
					t.Fatalf("%s: %d leaf-only and %d structural writes, want 0 and 1", what, lo, st)
				}
			}
			leafOnly := func(tr *Tree, what string, op func()) {
				t.Helper()
				delta := latchDelta(tr)
				op()
				if lo, st := delta("opt_writes"), delta("opt_write_fallbacks"); lo != 1 || st != 0 {
					t.Fatalf("%s: %d leaf-only and %d structural writes, want 1 and 0", what, lo, st)
				}
			}
			insert := func(tr *Tree, k Key) func() {
				return func() {
					t.Helper()
					if err := tr.Insert(k, TupleID(k+7)); err != nil {
						t.Fatalf("Insert(%d): %v", k, err)
					}
					if tid, ok, err := tr.Search(k); err != nil || !ok || tid != TupleID(k+7) {
						t.Fatalf("Search(%d) after its insert = (%d, %v, %v)", k, tid, ok, err)
					}
				}
			}

			// A full leaf (page or node): the insert would split it.
			full := bulkOdd(t, v, oddKeys, 1.0, 2)
			structural(full, "insert into a full leaf", insert(full, 3000))
			leafOnly(full, "insert into the half the split left", insert(full, 3002))

			tr := bulkOdd(t, v, oddKeys, 0.6, 2)
			// Below the global minimum: the leftmost separators are lowered.
			structural(tr, "insert below the smallest key", insert(tr, 0))
			leafOnly(tr, "insert above the new smallest key", insert(tr, 2))

			// A leaf that is not resident, under a resident path: empty the
			// pool, then read back everything but the neighbourhood of the
			// key (wide enough to hold its whole leaf page, narrow enough
			// that every page above it also serves keys outside).
			if err := tr.DropBufferPool(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < oddKeys; i++ {
				if k := Key(2*i + 1); k < 9000-1300 || k > 9000+1300 {
					if _, ok, err := tr.Search(k); err != nil || !ok {
						t.Fatalf("Search(%d) = (%v, %v)", k, ok, err)
					}
				}
			}
			structural(tr, "insert into an evicted leaf", insert(tr, 9000))
			leafOnly(tr, "insert into the leaf just read in", insert(tr, 9002))

			// A delete whose run starts in the next page: deleting every
			// bulkloaded key meets the first key of every leaf page, which
			// the strictly-less descent approaches from the page before.
			// The page-granular trees walk on from the latched leaf, one
			// exclusive latch at a time; cache-first, which would have to
			// re-check its epoch under every further latch, goes to wMu.
			if _, err := tr.RangeScan(0, ^Key(0), nil); err != nil {
				t.Fatal(err)
			}
			delta := latchDelta(tr)
			for i := 0; i < oddKeys; i++ {
				if ok, err := tr.Delete(Key(2*i + 1)); err != nil || !ok {
					t.Fatalf("Delete(%d) = (%v, %v)", 2*i+1, ok, err)
				}
			}
			lo, st, excl := delta("opt_writes"), delta("opt_write_fallbacks"), delta("exclusive_acquisitions")
			crossed := st // cache-first: one structural delete per crossing
			if v != CacheFirst {
				crossed = excl - oddKeys // the others: one more latch per crossing
			}
			if lo+st != oddKeys || (v != CacheFirst && st != 0) || crossed == 0 || crossed > oddKeys/10 || delta("shared_acquisitions") != 0 && v != CacheFirst {
				t.Fatalf("deleting every key: %d leaf-only, %d structural, %d exclusive latches; want a few page crossings (%d) and the rest one latch each", lo, st, excl, crossed)
			}
			if ok, err := tr.Delete(4001); err != nil || ok {
				t.Fatalf("Delete of a deleted key = (%v, %v)", ok, err)
			}
			checkAgainst(t, tr, map[Key]bool{0: true, 2: true, 9000: true, 9002: true})
		})
	}
}
