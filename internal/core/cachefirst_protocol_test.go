package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/buffer"
	"repro/internal/disksim"
	"repro/internal/idx"
	"repro/internal/memsim"
	"repro/internal/treetest"
)

// countingStore counts the page reads that reach the store.
type countingStore struct {
	buffer.Store
	reads atomic.Uint64
}

func (s *countingStore) ReadPage(pid uint32, dst []byte, now uint64) (uint64, error) {
	s.reads.Add(1)
	return s.Store.ReadPage(pid, dst, now)
}

// TestCacheFirstProtocolGolden pins the cache-first tree's pool call
// sequence in simulate mode: dense leaves, JPA on, 4 KB pages on one
// simulated disk and a pool of 24 frames, far smaller than the tree,
// so that CLOCK evicts and scan prefetches take frames. Where a walk
// pins the next page relative to unpinning the previous one decides
// which frame CLOCK can take, and so shows up in the misses, the store
// reads and the pool's virtual clock. The golden also hashes every
// operation's results and every reachable page. Regenerate with
// -update only for an intended change.
func TestCacheFirstProtocolGolden(t *testing.T) {
	disks, err := disksim.New(disksim.DefaultConfig(1, 4<<10))
	if err != nil {
		t.Fatal(err)
	}
	store := &countingStore{Store: buffer.NewDiskStore(disks)}
	pool := buffer.NewPool(store, 24)
	mm := memsim.NewDefault()
	pool.AttachModel(mm)
	tr, err := NewCacheFirst(CacheFirstConfig{Pool: pool, Model: mm, EnableJPA: true})
	if err != nil {
		t.Fatal(err)
	}
	const n, span = 60000, 8 * 60000
	if err := tr.Bulkload(treetest.GenEntries(n, 0, 8), 0.75); err != nil {
		t.Fatal(err)
	}
	res := fnv.New64a()
	put := func(vs ...uint32) {
		var b [4]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint32(b[:], v)
			res.Write(b[:])
		}
	}
	collect := func(k idx.Key, tid idx.TupleID) bool { put(k, tid); return true }
	rng := rand.New(rand.NewSource(37))
	keys := make([]idx.Key, 64)
	var out []idx.SearchResult
	for op := 0; op < 3000; op++ {
		k := idx.Key(rng.Intn(span))
		var err error
		switch p := rng.Intn(100); {
		case p < 20:
			err = tr.Insert(k, k+7)
		case p < 35:
			var found bool
			found, err = tr.Delete(k &^ 7)
			put(uint32(b2i(found)))
		case p < 70:
			tid, found, e := tr.Search(k &^ 7)
			put(tid, uint32(b2i(found)))
			err = e
		case p < 80:
			for i := range keys {
				keys[i] = idx.Key(rng.Intn(span)) &^ 7
			}
			if out, err = tr.SearchBatch(keys, out[:0]); err == nil {
				for _, r := range out {
					put(r.TID, uint32(b2i(r.Found)))
				}
			}
		case p < 92:
			var c int
			c, err = tr.RangeScan(k, k+idx.Key(rng.Intn(6000)), collect)
			put(uint32(c))
		default:
			var c int
			c, err = tr.RangeScanReverse(k, k+idx.Key(rng.Intn(6000)), collect)
			put(uint32(c))
		}
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	if n := pool.PinnedCount(); n != 0 {
		t.Fatalf("%d pages left pinned", n)
	}
	st, ps, reads, clock := mm.Stats(), pool.Stats(), store.reads.Load(), pool.Clock()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	pids := cfReachable(t, tr)
	pages := fnv.New64a()
	for _, pid := range pids {
		pg, err := pool.Get(pid)
		if err != nil {
			t.Fatal(err)
		}
		pages.Write(pg.Data)
		pool.Unpin(pg, false)
	}
	var got strings.Builder
	fmt.Fprintf(&got, "cycles=%d fetches=%d clock_us=%d\n", st.Cycles, st.MemFetches, clock)
	fmt.Fprintf(&got, "gets=%d hits=%d misses=%d prefetches=%d prefetch_hits=%d evictions=%d reads=%d\n",
		ps.Gets, ps.Hits, ps.DemandMisses, ps.PrefetchIssue, ps.PrefetchHits, ps.Evictions, reads)
	fmt.Fprintf(&got, "results=%#016x pages=%d pages_fnv=%#016x\n", res.Sum64(), len(pids), pages.Sum64())

	golden := filepath.Join("testdata", "cachefirst_protocol.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("cache-first protocol diverged from %s:\n--- got\n%s--- want\n%s", golden, got.String(), want)
	}
}
