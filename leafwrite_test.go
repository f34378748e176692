package fpbtree

import (
	"fmt"
	"sync"
	"testing"
)

// The workloads of the leaf-only write protocol (DESIGN.md §11.6). They
// run in every build: where the protocol is live (no race detector)
// most writes finish holding one latch, under -race every one of them
// takes the structural path, and the answers must be the same. The
// assertions that only hold where the protocol is live are in
// leafwrite_norace_test.go.

var leafWriteVariants = []Variant{DiskFirst, CacheFirst, DiskOptimized, MicroIndex}

// bulkOdd builds a serving tree over the odd keys 1, 3, …, 2n-1 (tuple
// k+7) with a pool that holds all of it, warmed.
func bulkOdd(t *testing.T, v Variant, n int, fill float64, clients int) *Tree {
	t.Helper()
	tr, err := New(WithVariant(v), WithConcurrency(clients), WithPageSize(4<<10), WithBufferPages(2048))
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]Entry, n)
	for i := range entries {
		k := Key(2*i + 1)
		entries[i] = Entry{Key: k, TID: TupleID(k + 7)}
	}
	if err := tr.Bulkload(entries, fill); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.RangeScan(0, ^Key(0), nil); err != nil {
		t.Fatal(err)
	}
	return tr
}

// checkAgainst compares the quiesced tree with the model: invariants,
// every key of the model found with its tuple, a full scan that
// delivers exactly the model in order, and no pin left behind.
func checkAgainst(t *testing.T, tr *Tree, model map[Key]bool) {
	t.Helper()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k := range model {
		if tid, ok, err := tr.Search(k); err != nil || !ok || tid != TupleID(k+7) {
			t.Fatalf("Search(%d) = (%d, %v, %v), want (%d, true, nil)", k, tid, ok, err, k+7)
		}
	}
	var prev Key
	n, err := tr.RangeScan(0, ^Key(0), func(k Key, tid TupleID) bool {
		if !model[k] || tid != TupleID(k+7) || (k <= prev && prev != 0) {
			t.Errorf("full scan delivered (%d, %d) after %d; in model: %v", k, tid, prev, model[k])
			return false
		}
		prev = k
		return true
	})
	if err != nil || n != len(model) {
		t.Fatalf("full scan = (%d, %v), want %d entries", n, err, len(model))
	}
	if n := tr.PinnedPages(); n != 0 {
		t.Fatalf("%d pages left pinned", n)
	}
}

// writeCounts reads the two counters every serving-mode write ends in.
func writeCounts(tr *Tree) (leafOnly, structural uint64) {
	c := tr.MetricsSnapshot().Counters
	return c["latch.opt_writes"], c["latch.opt_write_fallbacks"]
}

// TestLeafWriteHotLeaf races four writers on one hot leaf (a window of
// 40 consecutive even keys, interleaved so every one of them lands
// between the same few bulkloaded neighbours, inserted, deleted and
// inserted again) with two writers on disjoint far-apart ranges, two
// point readers and a scanner, then checks the tree against the model.
func TestLeafWriteHotLeaf(t *testing.T) {
	const (
		oddKeys = 6000
		hotBase = Key(5000) // evens 5000, 5002, … share one leaf
		hotKeys = 40
		hotters = 4
		rounds  = 150
		spread  = 800 // inserts per disjoint-range writer
	)
	for _, v := range leafWriteVariants {
		t.Run(v.String(), func(t *testing.T) {
			tr := bulkOdd(t, v, oddKeys, 0.6, 9)
			var writers, readers sync.WaitGroup
			stop := make(chan struct{})
			fail := func(format string, a ...any) { t.Errorf(format, a...) }

			for w := 0; w < hotters; w++ {
				writers.Add(1)
				go func(w int) {
					defer writers.Done()
					for r := 0; r < rounds; r++ {
						for i := w; i < hotKeys; i += hotters {
							k := hotBase + Key(2*i)
							if err := tr.Insert(k, TupleID(k+7)); err != nil {
								fail("hot writer %d: Insert(%d): %v", w, k, err)
								return
							}
							if r == rounds-1 {
								continue // the last round's keys stay
							}
							if ok, err := tr.Delete(k); err != nil || !ok {
								fail("hot writer %d: Delete(%d) = (%v, %v)", w, k, ok, err)
								return
							}
						}
					}
				}(w)
			}
			for w := 0; w < 2; w++ {
				writers.Add(1)
				go func(w int) {
					defer writers.Done()
					for i := 0; i < spread; i++ {
						// Writer 0 takes evens ≡ 0 (mod 4) below the hot
						// window, writer 1 evens ≡ 2 (mod 4) above it.
						k := Key(4*i + 2*w)
						if w == 1 {
							k += 6000
						}
						if k == 0 {
							continue
						}
						if err := tr.Insert(k, TupleID(k+7)); err != nil {
							fail("range writer %d: Insert(%d): %v", w, k, err)
							return
						}
						if i%3 == 0 {
							if ok, err := tr.Delete(k); err != nil || !ok {
								fail("range writer %d: Delete(%d) = (%v, %v)", w, k, ok, err)
								return
							}
						}
					}
				}(w)
			}
			for rd := 0; rd < 3; rd++ {
				readers.Add(1)
				go func(rd int) {
					defer readers.Done()
					x := uint32(31*rd + 5)
					for {
						select {
						case <-stop:
							return
						default:
						}
						x = x*1664525 + 1013904223
						k := Key(x%oddKeys)*2 + 1
						if rd == 2 {
							// Scans cross the hot window; the odd keys in
							// range are all there, in order, whatever the
							// writers are doing to the evens between them.
							lo, odd := hotBase-21, Key(0)
							_, err := tr.RangeScan(lo, lo+120, func(k Key, tid TupleID) bool {
								if tid != TupleID(k+7) {
									fail("scan saw (%d, %d)", k, tid)
								}
								if k%2 == 1 {
									odd++
								}
								return true
							})
							if err != nil || odd != 61 {
								fail("scan across the hot leaf: %d odd keys, err %v; want 61", odd, err)
								return
							}
							continue
						}
						if tid, ok, err := tr.Search(k); err != nil || !ok || tid != TupleID(k+7) {
							fail("reader %d: Search(%d) = (%d, %v, %v)", rd, k, tid, ok, err)
							return
						}
					}
				}(rd)
			}
			writers.Wait()
			close(stop)
			readers.Wait()
			if t.Failed() {
				t.FailNow()
			}

			model := make(map[Key]bool)
			for i := 0; i < oddKeys; i++ {
				model[Key(2*i+1)] = true
			}
			for i := 0; i < hotKeys; i++ {
				model[hotBase+Key(2*i)] = true
			}
			// Each hot key: rounds inserts, all but the last deleted again.
			writes := uint64(hotKeys * (2*rounds - 1))
			for w := 0; w < 2; w++ {
				for i := 0; i < spread; i++ {
					k := Key(4*i + 2*w)
					if w == 1 {
						k += 6000
					}
					if k == 0 {
						continue
					}
					writes++
					if i%3 == 0 {
						writes++
					} else {
						model[k] = true
					}
				}
			}
			checkAgainst(t, tr, model)

			// Every serving-mode write ends in exactly one of the two
			// counters; only a build where the protocol is live has any
			// in the first.
			leafOnly, structural := writeCounts(tr)
			if leafOnly+structural != writes {
				t.Errorf("opt_writes %d + opt_write_fallbacks %d != %d writes", leafOnly, structural, writes)
			}
			if !tr.pool.OptSupported() && leafOnly != 0 {
				t.Errorf("%d leaf-only writes in a build without optimistic reads", leafOnly)
			}
			t.Logf("%s: %d leaf-only, %d structural of %d writes", v, leafOnly, structural, writes)
		})
	}
}

// TestLeafWriteSplitStorm bulkloads full pages and lets three writers
// drive dense ascending runs into them — every few inserts a node or a
// page splits on the structural path — while two more keep inserting
// and deleting one key each right inside the storm's ranges, on the
// leaf-only path whenever they can. No insert may fail to converge
// (cache-first bounds its restarts at 64 attempts), nothing may stay
// pinned, and the tree must hold exactly the model.
func TestLeafWriteSplitStorm(t *testing.T) {
	const (
		oddKeys = 3000
		run     = 1000 // dense evens per storm writer
		pokes   = 3000
	)
	for _, v := range leafWriteVariants {
		t.Run(v.String(), func(t *testing.T) {
			tr := bulkOdd(t, v, oddKeys, 1.0, 5)
			var wg sync.WaitGroup
			errs := make(chan error, 5)
			// Storm writer w owns the evens of [w*2000+2, w*2000+2+2*run):
			// inside the bulkloaded range, so every page it meets is full.
			for w := 0; w < 3; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < run; i++ {
						k := Key(w*2000 + 2 + 2*i)
						if k%1000 == 0 {
							continue // the pokers' keys
						}
						if err := tr.Insert(k, TupleID(k+7)); err != nil {
							errs <- fmt.Errorf("storm writer %d: Insert(%d): %w", w, k, err)
							return
						}
					}
				}(w)
			}
			for p := 0; p < 2; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					k := Key(1000 + 2000*p)
					for i := 0; i < pokes; i++ {
						if err := tr.Insert(k, TupleID(k+7)); err != nil {
							errs <- fmt.Errorf("poker %d: Insert(%d): %w", p, k, err)
							return
						}
						if ok, err := tr.Delete(k); err != nil || !ok {
							errs <- fmt.Errorf("poker %d: Delete(%d) = (%v, %v)", p, k, ok, err)
							return
						}
					}
				}(p)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			model := make(map[Key]bool)
			for i := 0; i < oddKeys; i++ {
				model[Key(2*i+1)] = true
			}
			for w := 0; w < 3; w++ {
				for i := 0; i < run; i++ {
					if k := Key(w*2000 + 2 + 2*i); k%1000 != 0 {
						model[k] = true
					}
				}
			}
			checkAgainst(t, tr, model)
			leafOnly, structural := writeCounts(tr)
			t.Logf("%s: %d leaf-only, %d structural writes under the split storm", v, leafOnly, structural)
		})
	}
}
