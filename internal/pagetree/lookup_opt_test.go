package pagetree_test

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/memsim"
	"repro/internal/obs"
)

// TestSearchOptDifferential drives the latch-free lookup on every
// layout and the fake: a serving tree (latched pool, frozen model) with
// a duplicate run across leaf pages and lazily emptied pages, probed at
// present and absent keys before and after the run's first entry is
// deleted. The latch-free answer (Search, with no latch, restart or
// fallback counted), the pinned walk's (Locate) and SearchBatch's must
// all equal the model's.
func TestSearchOptDifferential(t *testing.T) {
	for _, row := range lookupRows() {
		mm := memsim.NewDefault()
		mm.SetConcurrent(true)
		pool := buffer.NewConcurrentPool(buffer.NewMemStore(1<<10), 4096, 4)
		if !pool.OptSupported() {
			t.Skip("the latch-free protocol is compiled out under the race detector")
		}
		pool.AttachModel(mm)
		reg := obs.NewRegistry()
		pool.Latches().RegisterMetrics(reg)
		ix, err := row.make(pool, mm)
		if err != nil {
			t.Fatal(err)
		}
		const n = 1500
		dup, gone, per := lookupFixture(t, pool, ix, n)
		want := map[idx.Key]idx.TupleID{dup: 100000}
		for i := 0; i < n; i++ {
			if i < gone || i >= gone+4*per {
				want[idx.Key(3*i)] = idx.TupleID(3*i + 7)
			}
		}
		var probes []idx.Key
		for k := idx.Key(0); k < 3*n+6; k++ {
			probes = append(probes, k)
		}
		var res []idx.SearchResult
		for _, deleted := range []bool{false, true} {
			if deleted {
				if ok, err := ix.Delete(dup); err != nil || !ok {
					t.Fatalf("%s: Delete(%d) = (%v, %v)", row.name, dup, ok, err)
				}
				want[dup] = 100001
			}
			before := reg.Snapshot().Counters
			for _, k := range probes {
				wtid, wfound := want[k]
				if tid, found, err := ix.Search(k); err != nil || found != wfound || tid != wtid {
					t.Fatalf("%s: latch-free Search(%d) = (%d, %v, %v), want (%d, %v)", row.name, k, tid, found, err, wtid, wfound)
				}
			}
			after := reg.Snapshot().Counters
			for _, c := range []string{"latch.opt_restarts", "latch.opt_fallbacks", "latch.shared_acquisitions"} {
				if d := after[c] - before[c]; d != 0 {
					t.Fatalf("%s: %s rose by %d: the lookups did not all run latch-free", row.name, c, d)
				}
			}
			for _, k := range probes {
				wtid, wfound := want[k]
				pg, pos, err := ix.Locate(k, false)
				if err != nil || (pos >= 0) != wfound {
					t.Fatalf("%s: Locate(%d) = (%d, %v), want found=%v", row.name, k, pos, err, wfound)
				}
				if pos >= 0 {
					tid := ix.TupleAt(pg, pos)
					pool.Unpin(pg, false)
					if tid != wtid {
						t.Fatalf("%s: the pinned walk finds tuple %d for key %d, want %d", row.name, tid, k, wtid)
					}
				}
			}
			if res, err = ix.SearchBatch(probes, res[:0]); err != nil {
				t.Fatal(err)
			}
			for i, k := range probes {
				wtid, wfound := want[k]
				if res[i].Found != wfound || res[i].TID != wtid {
					t.Fatalf("%s: SearchBatch[%d] (key %d) = %+v, want (%d, %v)", row.name, i, k, res[i], wtid, wfound)
				}
			}
			if p := pool.PinnedCount(); p != 0 {
				t.Fatalf("%s: %d pages left pinned", row.name, p)
			}
		}
	}
}
