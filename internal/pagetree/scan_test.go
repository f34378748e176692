package pagetree_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/pagetree"
)

// scanRow builds one scannable tree: the fake (4 entries per page, so a
// range of a few dozen keys crosses many pages and most inserts split)
// or a real layout on 1 KB pages.
type scanRow struct {
	name     string
	pageSize int
	make     func(pool *buffer.Pool, window int) scanIndex
}

func scanRows(t *testing.T) []scanRow {
	rows := []scanRow{{"fake", 64, func(p *buffer.Pool, w int) scanIndex { return pagetree.NewScanFake(p, w, false) }}}
	for _, row := range layoutRows {
		rows = append(rows, scanRow{row.name, 1 << 10, func(p *buffer.Pool, w int) scanIndex {
			mm := memsim.NewDefault()
			p.AttachModel(mm)
			// A latched pool serves: the model is frozen, as the facade
			// freezes it, because concurrent operations would race on it.
			mm.SetConcurrent(p.Latches() != nil)
			lay, err := row.make(p, mm, w)
			if err != nil {
				t.Fatal(err)
			}
			return lay.(scanIndex)
		}})
	}
	return rows
}

// scanModel is the sorted key multiset a tree should hold; every entry
// carries tuple key+7.
type scanModel []idx.Key

// want returns the model's keys in [lo, hi], reversed on request.
func (m scanModel) want(lo, hi idx.Key, reverse bool) []idx.Key {
	from := sort.Search(len(m), func(i int) bool { return m[i] >= lo })
	to := sort.Search(len(m), func(i int) bool { return m[i] > hi })
	if from >= to {
		return nil
	}
	out := append([]idx.Key(nil), m[from:to]...)
	if reverse {
		slices.Reverse(out)
	}
	return out
}

func scanOf(ix scanIndex, reverse bool) func(lo, hi idx.Key, fn func(idx.Key, idx.TupleID) bool) (int, error) {
	if reverse {
		return ix.RangeScanReverse
	}
	return ix.RangeScan
}

// TestScanDifferential compares forward and reverse scans with a sorted
// model, serially, on every layout with jump-pointer prefetching off
// and on: every page's first key and every fourth key besides as the
// lower and as the upper end of a range, the gaps either side of it, a
// duplicate run that spans pages, inverted and out-of-domain ranges,
// and consumers that stop early.
func TestScanDifferential(t *testing.T) {
	for _, row := range scanRows(t) {
		for _, window := range []int{0, 3} {
			t.Run(fmt.Sprintf("%s/window=%d", row.name, window), func(t *testing.T) {
				pool := buffer.NewPool(buffer.NewMemStore(row.pageSize), 64)
				ix := row.make(pool, window)
				// Even keys 100..2098 loaded in order, then a run of 300
				// duplicates, odd keys and a descending run below the
				// loaded minimum, inserted at random.
				var model scanModel
				var load []idx.Entry
				for k := idx.Key(100); k < 2100; k += 2 {
					load = append(load, idx.Entry{Key: k, TID: k + 7})
					model = append(model, k)
				}
				if err := ix.Bulkload(load, 0.7); err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(row.pageSize + window)))
				for i := 0; i < 1500; i++ {
					k := idx.Key(100 + 2*rng.Intn(1000) + 1)
					switch {
					case i%5 == 0:
						k = 1000
					case i%7 == 0:
						k = idx.Key(99 - i/7)
					}
					if err := ix.Insert(k, k+7); err != nil {
						t.Fatal(err)
					}
					model = append(model, k)
				}
				sort.Slice(model, func(i, j int) bool { return model[i] < model[j] })
				boundary := map[idx.Key]bool{}
				_, mins := leafPages(t, pool, ix)
				for _, k := range mins {
					boundary[k] = true
				}

				check := func(lo, hi idx.Key, reverse bool, stopAfter int) {
					t.Helper()
					want := model.want(lo, hi, reverse)
					if stopAfter > 0 && stopAfter < len(want) {
						want = want[:stopAfter]
					}
					var got []idx.Key
					n, err := scanOf(ix, reverse)(lo, hi, func(k idx.Key, tid idx.TupleID) bool {
						if tid != k+7 {
							t.Fatalf("scan(%d, %d, reverse=%v): key %d carries tuple %d", lo, hi, reverse, k, tid)
						}
						got = append(got, k)
						return len(got) != stopAfter
					})
					if err != nil || n != len(want) || len(got) != len(want) {
						t.Fatalf("scan(%d, %d, reverse=%v, stop=%d) = (%d, %v) and %d calls, want %d entries", lo, hi, reverse, stopAfter, n, err, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("scan(%d, %d, reverse=%v): entry %d is key %d, want %d", lo, hi, reverse, i, got[i], want[i])
						}
					}
					if n := pool.PinnedCount(); n != 0 {
						t.Fatalf("scan(%d, %d, reverse=%v) left %d pages pinned", lo, hi, reverse, n)
					}
				}
				for _, reverse := range []bool{false, true} {
					for i, k := range model {
						if i > 0 && k == model[i-1] || !boundary[k] && i%4 != 0 {
							continue
						}
						check(k, k, reverse, 0)
						check(k, k+40, reverse, 0)
						check(k-min(k, 41), k-1, reverse, 0)
						check(k+1, k+1, reverse, 0)
						if i%16 == 0 {
							check(k, k+400, reverse, 0)
							check(k-min(k, 200), k, reverse, 7)
							check(k, ^idx.Key(0), reverse, 1)
						}
					}
					check(0, ^idx.Key(0), reverse, 0)
					check(990, 1010, reverse, 0) // the duplicate run, whole
					check(1000, 1000, reverse, 150)
					check(0, 10, reverse, 0)
					check(5000, 6000, reverse, 0)
					check(700, 600, reverse, 0)
					// A nil consumer counts.
					if n, err := scanOf(ix, reverse)(500, 1500, nil); err != nil || n != len(model.want(500, 1500, false)) {
						t.Fatalf("counting scan = (%d, %v)", n, err)
					}
				}
			})
		}
	}
}

// leafPages lists the tree's leaf pages in chain order with the
// minimum key of each.
func leafPages(t *testing.T, pool *buffer.Pool, ix scanIndex) (pids []uint32, mins []idx.Key) {
	t.Helper()
	for pid := ix.FirstLeaf(); pid != 0; {
		pg, err := pool.Get(pid)
		if err != nil {
			t.Fatal(err)
		}
		pids, mins = append(pids, pid), append(mins, ix.MinKey(pg.Data))
		pid = ix.Next(pg.Data)
		pool.Unpin(pg, false)
	}
	return pids, mins
}

// TestReverseScanRacingSplit is the race a reverse scan used to lose,
// made deterministic. The scan's consumer, called with the first key of
// leaf page Q — the scan holds Q's latch — starts a writer that inserts
// into Q's full left neighbour P. The writer splits P and parks on Q's
// latch, to fix Q's prev link; only then does the consumer return. The
// scan finishes Q, reads the prev link that still names P, lets go of Q
// and pins P, which by then holds only the lower half of its entries:
// it must notice that P's right sibling is not Q and visit the new page
// first. Every key loaded before the scan has to be delivered, once and
// in order.
func TestReverseScanRacingSplit(t *testing.T) {
	for _, row := range scanRows(t) {
		t.Run(row.name, func(t *testing.T) {
			pool := buffer.NewConcurrentPool(buffer.NewMemStore(row.pageSize), 256, 4)
			reg := obs.NewRegistry()
			pool.Latches().RegisterMetrics(reg)
			parked := func() uint64 { return reg.Snapshot().Counters["latch.writer_waits"] }

			ix := row.make(pool, 0)
			var load []idx.Entry
			for i := 1; i <= 1200; i++ {
				load = append(load, idx.Entry{Key: idx.Key(10 * i), TID: idx.TupleID(10*i + 7)})
			}
			if err := ix.Bulkload(load, 0.7); err != nil {
				t.Fatal(err)
			}
			pids, mins := leafPages(t, pool, ix)
			if len(pids) < 6 {
				t.Fatalf("only %d leaf pages", len(pids))
			}
			q := len(pids) / 2
			// Fresh keys of P's range, below its last loaded key.
			var fresh []idx.Key
			for k := mins[q-1]; k < mins[q]-10; k += 10 {
				for d := idx.Key(1); d < 10; d++ {
					fresh = append(fresh, k+d)
				}
			}
			// Fill P to the point where it may split.
			for safe := true; safe; {
				pg, err := pool.Get(pids[q-1])
				if err != nil {
					t.Fatal(err)
				}
				safe = ix.Safe(pg.Data)
				pool.Unpin(pg, false)
				if safe {
					if err := ix.Insert(fresh[0], fresh[0]+7); err != nil {
						t.Fatal(err)
					}
					fresh = fresh[1:]
				}
			}
			if after, _ := leafPages(t, pool, ix); len(after) != len(pids) {
				t.Fatalf("filling page %d split it", pids[q-1])
			}

			var writer sync.WaitGroup
			var werr atomic.Value
			started := false
			var got []idx.Key
			_, err := ix.RangeScanReverse(0, ^idx.Key(0), func(k idx.Key, tid idx.TupleID) bool {
				if tid != k+7 {
					t.Errorf("key %d carries tuple %d", k, tid)
				}
				got = append(got, k)
				if started || k >= mins[q+1] {
					return true
				}
				// The scan is inside Q.
				started = true
				before := parked()
				writer.Add(1)
				go func() {
					defer writer.Done()
					for _, k := range fresh {
						if err := ix.Insert(k, k+7); err != nil {
							werr.Store(err)
							return
						}
					}
				}()
				for deadline := time.Now().Add(20 * time.Second); parked() == before; runtime.Gosched() {
					if time.Now().After(deadline) {
						t.Error("the writer never parked on the scanned page's latch")
						return false
					}
				}
				return true
			})
			writer.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if e := werr.Load(); e != nil {
				t.Fatal(e)
			}
			if after, _ := leafPages(t, pool, ix); len(after) == len(pids) {
				t.Fatal("the writer split nothing")
			}
			next := 1200 // the loaded keys, descending
			for i, k := range got {
				if i > 0 && k >= got[i-1] {
					t.Fatalf("key %d delivered after %d", k, got[i-1])
				}
				if k%10 == 0 {
					if k != idx.Key(10*next) {
						t.Fatalf("loaded key %d was not delivered (next loaded key seen: %d)", 10*next, k)
					}
					next--
				}
			}
			if next != 0 {
				t.Fatalf("the scan ended above loaded key %d", 10*next)
			}
			if n := pool.PinnedCount(); n != 0 {
				t.Fatalf("%d pages left pinned", n)
			}
		})
	}
}

// TestScanConcurrentStress runs forward and reverse scanners beside
// inserters that keep splitting leaf pages: each scan of a random range
// must deliver every key loaded before the writers started exactly
// once, in order and with its tuple, whatever else it sees.
func TestScanConcurrentStress(t *testing.T) {
	const loaded, writers, perWriter = 1500, 4, 800
	for _, row := range scanRows(t) {
		t.Run(row.name, func(t *testing.T) {
			pool := buffer.NewConcurrentPool(buffer.NewMemStore(row.pageSize), 4096, 16)
			ix := row.make(pool, 2)
			var load []idx.Entry
			for i := 1; i <= loaded; i++ {
				load = append(load, idx.Entry{Key: idx.Key(10 * i), TID: idx.TupleID(10*i + 7)})
			}
			if err := ix.Bulkload(load, 0.9); err != nil {
				t.Fatal(err)
			}
			var writing, scanning sync.WaitGroup
			done := make(chan struct{})
			for w := 0; w < writers; w++ {
				writing.Add(1)
				go func(w int) {
					defer writing.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < perWriter; i++ {
						// Never a multiple of 10. Odd writers stay in a narrow
						// band, so its pages split again and again under the
						// scanners.
						base := 1 + rng.Intn(loaded)
						if w%2 == 1 {
							base = loaded/2 + rng.Intn(40)
						}
						k := idx.Key(10*base + 1 + rng.Intn(9))
						if err := ix.Insert(k, k+7); err != nil {
							t.Errorf("writer %d: Insert(%d): %v", w, k, err)
							return
						}
					}
				}(w)
			}
			var scans atomic.Int64
			for s := 0; s < 3; s++ {
				scanning.Add(1)
				go func(s int) {
					defer scanning.Done()
					reverse := s > 0
					rng := rand.New(rand.NewSource(int64(100 + s)))
					for {
						select {
						case <-done:
							return
						default:
						}
						lo := idx.Key(rng.Intn(10 * loaded))
						hi := lo + idx.Key(rng.Intn(3000))
						// The loaded keys of [lo, hi], in delivery order.
						var expect []idx.Key
						for k := max(10, (lo+9)/10*10); k <= min(hi, 10*loaded); k += 10 {
							expect = append(expect, k)
						}
						if reverse {
							slices.Reverse(expect)
						}
						var prev idx.Key
						n := 0
						_, err := scanOf(ix, reverse)(lo, hi, func(k idx.Key, tid idx.TupleID) bool {
							switch {
							case tid != k+7:
								t.Errorf("scan(%d, %d, reverse=%v): key %d carries tuple %d", lo, hi, reverse, k, tid)
							case k < lo || k > hi:
								t.Errorf("scan(%d, %d, reverse=%v): key %d out of range", lo, hi, reverse, k)
							case n > 0 && k != prev && (k < prev) != reverse:
								t.Errorf("scan(%d, %d, reverse=%v): key %d after %d", lo, hi, reverse, k, prev)
							case k%10 == 0 && (len(expect) == 0 || k != expect[0]):
								t.Errorf("scan(%d, %d, reverse=%v): loaded key %d delivered, %d still expected, first %v", lo, hi, reverse, k, len(expect), expect[:min(1, len(expect))])
							case k%10 == 0:
								expect = expect[1:]
							}
							prev, n = k, n+1
							return !t.Failed()
						})
						if err != nil {
							t.Errorf("scan(%d, %d, reverse=%v): %v", lo, hi, reverse, err)
						}
						if len(expect) > 0 {
							t.Errorf("scan(%d, %d, reverse=%v) missed loaded key %d and %d more", lo, hi, reverse, expect[0], len(expect)-1)
						}
						if t.Failed() {
							return
						}
						scans.Add(1)
					}
				}(s)
			}
			writing.Wait()
			close(done)
			scanning.Wait()
			if t.Failed() {
				t.FailNow()
			}
			if scans.Load() == 0 {
				t.Fatal("no scan completed beside the writers")
			}
			if n := pool.PinnedCount(); n != 0 {
				t.Fatalf("%d pages left pinned", n)
			}
			n, err := ix.RangeScan(0, ^idx.Key(0), nil)
			if err != nil || n != loaded+writers*perWriter {
				t.Fatalf("final scan = (%d, %v), want %d entries", n, err, loaded+writers*perWriter)
			}
		})
	}
}

// TestScanOvershootAblation: with the §2.2 end-page check ablated the
// walk also prefetches the leaf pages that follow the range's end page
// in its leaf parent, up to a window of them; with it, none.
func TestScanOvershootAblation(t *testing.T) {
	issued := func(overshoot bool, lo idx.Key) uint64 {
		pool := buffer.NewPool(buffer.NewMemStore(64), 256)
		f := pagetree.NewScanFake(pool, 3, overshoot)
		var load []idx.Entry
		for k := idx.Key(1); k <= 400; k++ {
			load = append(load, idx.Entry{Key: k, TID: k + 7})
		}
		if err := f.Bulkload(load, 1); err != nil {
			t.Fatal(err)
		}
		if err := pool.DropAll(); err != nil {
			t.Fatal(err)
		}
		pool.ResetStats()
		if n, err := f.RangeScan(lo, lo+3, nil); err != nil || n != 4 {
			t.Fatalf("scan = (%d, %v), want 4 entries", n, err)
		}
		return pool.Stats().PrefetchIssue
	}
	// Keys inserted in order leave two per leaf and two to four leaves
	// per leaf parent: of four neighbouring ranges some end mid-parent.
	more := false
	for lo := idx.Key(101); lo < 109; lo += 2 {
		with, without := issued(true, lo), issued(false, lo)
		// The leaf below lo (the descent is strictly-less) and the
		// range's own two.
		if without != 3 || with < without || with > without+3 {
			t.Fatalf("scan from %d: %d prefetches with the end-page check, %d without it (window 3)", lo, without, with)
		}
		more = more || with > without
	}
	if !more {
		t.Fatal("ablating the end-page check never prefetched past the end page")
	}
}
