package fpbtree

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentMixedStress runs 2 reader + 2 writer goroutines against
// a WithConcurrency(4) tree of every disk-resident variant: readers
// search random keys and range-scan in both directions while writers
// insert disjoint even-key sets, then the final tree is checked
// structurally and differentially against the exact reference model.
// Run under -race.
func TestConcurrentMixedStress(t *testing.T) {
	for _, v := range []Variant{DiskFirst, CacheFirst, DiskOptimized, MicroIndex} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			const (
				oddKeys      = 4000 // bulkloaded: 1, 3, 5, ...
				insPerWriter = 1500 // writer w inserts evens ≡ 2w (mod 4)
			)
			tr, err := New(
				WithVariant(v),
				WithConcurrency(4),
				WithPageSize(4<<10),
				WithBufferPages(512),
			)
			if err != nil {
				t.Fatal(err)
			}
			entries := make([]Entry, oddKeys)
			for i := range entries {
				k := Key(2*i + 1)
				entries[i] = Entry{Key: k, TID: TupleID(k + 7)}
			}
			if err := tr.Bulkload(entries, 0.8); err != nil {
				t.Fatal(err)
			}
			maxKey := Key(2 * oddKeys)

			var wg sync.WaitGroup
			errs := make(chan error, 4)

			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					x := uint32(1000*w + 17)
					for n := 0; n < 6000; n++ {
						x = x*1664525 + 1013904223
						k := Key(x % uint32(maxKey+10))
						tid, ok, err := tr.Search(k)
						if err != nil {
							errs <- fmt.Errorf("reader %d: Search(%d): %v", w, k, err)
							return
						}
						if k%2 == 1 && k < maxKey {
							if !ok || tid != TupleID(k+7) {
								errs <- fmt.Errorf("reader %d: Search(%d) = (%d,%v), want (%d,true)", w, k, tid, ok, k+7)
								return
							}
						} else if ok && tid != TupleID(k+7) {
							// Evens appear as writers land them, but the
							// tuple must always be consistent.
							errs <- fmt.Errorf("reader %d: Search(%d) saw wrong tuple %d", w, k, tid)
							return
						}
						if n%500 == 0 {
							lo := Key(x % uint32(maxKey))
							bad := false
							if _, err := tr.RangeScan(lo, lo+64, func(k Key, tid TupleID) bool {
								if tid != TupleID(k+7) {
									bad = true
									return false
								}
								return true
							}); err != nil {
								errs <- fmt.Errorf("reader %d: RangeScan: %v", w, err)
								return
							}
							if bad {
								errs <- fmt.Errorf("reader %d: RangeScan saw inconsistent tuple", w)
								return
							}
							// Exact for every variant: a split racing the walk
							// restarts it or is recovered by stepping right.
							if err := reverseScanDiff(tr, lo, lo+64, maxKey); err != nil {
								errs <- fmt.Errorf("reader %d: %v", w, err)
								return
							}
						}
					}
				}(w)
			}

			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for n := 0; n < insPerWriter; n++ {
						k := Key(4*n + 2*w) // disjoint even keys per writer
						if k == 0 {
							k = 4 * insPerWriter // keep 0 free as a sentinel
						}
						if err := tr.Insert(k, TupleID(k+7)); err != nil {
							errs <- fmt.Errorf("writer %d: Insert(%d): %v", w, k, err)
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

			if n := tr.PinnedPages(); n != 0 {
				t.Fatalf("%d pinned pages leaked", n)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("invariants: %v", err)
			}

			// Exact differential: the surviving tree must contain the odd
			// bulkload plus both writers' even sets, nothing else.
			want := make(map[Key]TupleID, oddKeys+2*insPerWriter)
			for i := 0; i < oddKeys; i++ {
				k := Key(2*i + 1)
				want[k] = TupleID(k + 7)
			}
			for w := 0; w < 2; w++ {
				for n := 0; n < insPerWriter; n++ {
					k := Key(4*n + 2*w)
					if k == 0 {
						k = 4 * insPerWriter
					}
					want[k] = TupleID(k + 7)
				}
			}
			got := make(map[Key]TupleID, len(want))
			if _, err := tr.RangeScan(0, ^Key(0), func(k Key, tid TupleID) bool {
				got[k] = tid
				return true
			}); err != nil {
				t.Fatalf("final scan: %v", err)
			}
			if len(got) != len(want) {
				t.Fatalf("tree has %d entries, reference has %d", len(got), len(want))
			}
			for k, tid := range want {
				if got[k] != tid {
					t.Fatalf("key %d: tree has %d, reference has %d", k, got[k], tid)
				}
			}
		})
	}
}

// reverseScanDiff checks one RangeScanReverse(lo, hi) taken while
// writers insert even keys into a tree bulkloaded with the odd keys
// below maxKey, all with TID = key+7: every entry seen must carry its
// tuple, lie in range and descend strictly, and the odd keys seen must
// be exactly the odd keys of the range. A reverse scan walks against
// the direction splits move entries; every variant recovers what a
// split racing the walk moved right of it (pagetree.Scan's step-right
// rule; cache-first's relocation epoch and its step right from the
// descent), so one scan must be exact.
func reverseScanDiff(tr *Tree, lo, hi, maxKey Key) error {
	wantOdd := 0
	for k := lo | 1; k <= hi && k < maxKey; k += 2 {
		wantOdd++
	}
	var bad error
	gotOdd, last, have := 0, Key(0), false
	_, err := tr.RangeScanReverse(lo, hi, func(k Key, tid TupleID) bool {
		switch {
		case tid != TupleID(k+7):
			bad = fmt.Errorf("RangeScanReverse(%d,%d): key %d has tuple %d", lo, hi, k, tid)
		case k < lo || k > hi:
			bad = fmt.Errorf("RangeScanReverse(%d,%d): key %d out of range", lo, hi, k)
		case have && k >= last:
			bad = fmt.Errorf("RangeScanReverse(%d,%d): key %d after %d", lo, hi, k, last)
		}
		if k%2 == 1 {
			gotOdd++
		}
		last, have = k, true
		return bad == nil
	})
	if err != nil {
		return fmt.Errorf("RangeScanReverse(%d,%d): %v", lo, hi, err)
	}
	if bad != nil {
		return bad
	}
	if gotOdd != wantOdd {
		return fmt.Errorf("RangeScanReverse(%d,%d): saw %d of the %d bulkloaded keys", lo, hi, gotOdd, wantOdd)
	}
	return nil
}
