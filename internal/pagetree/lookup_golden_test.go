package pagetree_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/pagetree"
)

// lookupIndex is what the point-read tests drive: the trees that embed
// pagetree.Tree, and the fake.
type lookupIndex interface {
	pagetree.Layout
	Bulkload(entries []idx.Entry, fill float64) error
	Insert(k idx.Key, tid idx.TupleID) error
	Search(k idx.Key) (idx.TupleID, bool, error)
	SearchBatch(keys []idx.Key, out []idx.SearchResult) ([]idx.SearchResult, error)
	Delete(k idx.Key) (bool, error)
	Locate(k idx.Key, excl bool) (buffer.Page, int, error)
	FirstLeaf() uint32
}

// lookupRow builds one lookupIndex over a pool and a model.
type lookupRow struct {
	name string
	make func(pool *buffer.Pool, mm *memsim.Model) (lookupIndex, error)
}

// lookupRows is every layout row plus the fake.
func lookupRows() []lookupRow {
	var rows []lookupRow
	for _, row := range layoutRows {
		mk := row.make
		rows = append(rows, lookupRow{row.name, func(pool *buffer.Pool, mm *memsim.Model) (lookupIndex, error) {
			lay, err := mk(pool, mm, 0)
			if err != nil {
				return nil, err
			}
			return lay.(lookupIndex), nil
		}})
	}
	return append(rows, lookupRow{"fake", func(pool *buffer.Pool, _ *memsim.Model) (lookupIndex, error) {
		return pagetree.NewScanFake(pool, 0, false), nil
	}})
}

// lookupFixture loads ix with the keys 3i (i < n, tuple 3i+7) at fill
// 0.25, inserts a run of 300 duplicates of dup (tuples 100000+j) and
// lazily deletes the keys 3i for i in [gone, gone+4*per), where per is
// the first leaf page's entry count and gone is page-aligned. It checks
// that the run spans at least three leaf pages and that some leaf pages
// are left empty.
func lookupFixture(t *testing.T, pool *buffer.Pool, ix lookupIndex, n int) (dup idx.Key, gone, per int) {
	t.Helper()
	entries := make([]idx.Entry, n)
	for i := range entries {
		entries[i] = idx.Entry{Key: idx.Key(3 * i), TID: idx.TupleID(3*i + 7)}
	}
	if err := ix.Bulkload(entries, 0.25); err != nil {
		t.Fatal(err)
	}
	pg, err := pool.Get(ix.FirstLeaf())
	if err != nil {
		t.Fatal(err)
	}
	first, _ := ix.SalvageLeaf(pg.Data, nil)
	pool.Unpin(pg, false)
	per = len(first)
	dup = idx.Key(3*(n/3) + 1)
	for j := 0; j < 300; j++ {
		if err := ix.Insert(dup, idx.TupleID(100000+j)); err != nil {
			t.Fatal(err)
		}
	}
	gone = (2 * n / 3) / per * per
	for i := gone; i < gone+4*per; i++ {
		if ok, err := ix.Delete(idx.Key(3 * i)); err != nil || !ok {
			t.Fatalf("Delete(%d) = (%v, %v)", 3*i, ok, err)
		}
	}
	runPages, empty := 0, 0
	for pid := ix.FirstLeaf(); pid != 0; {
		pg, err := pool.Get(pid)
		if err != nil {
			t.Fatal(err)
		}
		es, _ := ix.SalvageLeaf(pg.Data, nil)
		if len(es) == 0 {
			empty++
		}
		for _, e := range es {
			if e.Key == dup {
				runPages++
				break
			}
		}
		pid = ix.Next(pg.Data)
		pool.Unpin(pg, false)
	}
	if runPages < 3 || empty < 1 {
		t.Fatalf("the run spans %d leaf pages and %d pages are empty; want >= 3 and >= 1", runPages, empty)
	}
	return dup, gone, per
}

// TestLookupPoolSequence pins the pool traffic and the model charges of
// the point reads — Search, SearchBatch's leaf phase and Delete's walk —
// on every layout and the fake: per operation the Get hits, demand
// misses and evictions of a 12-frame sequential pool in order, and the
// simulated cycles, memory fetches and node visits it cost; per phase
// an FNV of every result. The tree (1 KB pages) has a duplicate run
// across several leaf pages and a stretch of leaf pages emptied by lazy
// deletes, so the walks step right over both. The simulated tables of
// three variants depend on this order.
func TestLookupPoolSequence(t *testing.T) {
	var got bytes.Buffer
	for _, row := range lookupRows() {
		mm := memsim.NewDefault()
		pool := buffer.NewPool(buffer.NewMemStore(1<<10), 12)
		pool.AttachModel(mm)
		ix, err := row.make(pool, mm)
		if err != nil {
			t.Fatal(err)
		}
		const n = 1500
		dup, gone, per := lookupFixture(t, pool, ix, n)
		visits := func() uint64 {
			if s, ok := ix.(interface{ Stats() idx.OpStats }); ok {
				return s.Stats().NodeVisits
			}
			return 0
		}
		tr := obs.NewTracer(1 << 12)
		pool.AttachTracer(tr)
		fmt.Fprintf(&got, "# %s\n", row.name)
		h := fnv.New64a()
		phase := func(name string) {
			fmt.Fprintf(&got, "%s results=%016x\n", name, h.Sum64())
			h.Reset()
		}
		// op runs one operation and records what it cost.
		op := func(name string, k idx.Key, run func() (idx.TupleID, bool, error)) (idx.TupleID, bool) {
			tr.Reset()
			ms, v := mm.Stats(), visits()
			tid, found, err := run()
			if err != nil {
				t.Fatalf("%s %s(%d): %v", row.name, name, k, err)
			}
			if tr.Dropped() != 0 {
				t.Fatal("trace ring overflowed")
			}
			fmt.Fprintf(h, "%d %d %v;", k, tid, found)
			d := mm.Stats().Sub(ms)
			var evs []string
			for _, e := range tr.Events(nil) {
				if ev := poolEvent(e); ev != "" {
					evs = append(evs, ev)
				}
			}
			fmt.Fprintf(&got, "%s %d cyc=%d fetch=%d visits=%d: %s\n", name, k, d.Cycles, d.MemFetches, visits()-v, strings.Join(evs, ", "))
			if p := pool.PinnedCount(); p != 0 {
				t.Fatalf("%s %s(%d) left %d pages pinned", row.name, name, k, p)
			}
			return tid, found
		}
		search := func(k idx.Key) (idx.TupleID, bool) {
			return op("search", k, func() (idx.TupleID, bool, error) { return ix.Search(k) })
		}

		for i := 0; i < n; i += 5 {
			k := idx.Key(3 * i)
			tid, found := search(k)
			if live := i < gone || i >= gone+4*per; found != live || (live && tid != k+7) {
				t.Fatalf("%s: Search(%d) = (%d, %v), want present=%v", row.name, k, tid, found, live)
			}
		}
		phase("present")
		for i := 0; i < n; i += 25 {
			search(idx.Key(3*i + 2))
		}
		for i := gone; i < gone+4*per; i += max(per/2, 1) {
			search(idx.Key(3*i + 1))
		}
		search(dup - 1)
		search(dup)
		search(dup + 1)
		search(idx.Key(3*n + 5))
		phase("absent")

		keys := make([]idx.Key, 64)
		for j := range keys {
			keys[j] = idx.Key(3 * (j * 37 % n))
			if j%4 == 3 {
				keys[j]++
			}
		}
		keys[0], keys[1], keys[2] = dup, idx.Key(3*gone), idx.Key(3*n+5)
		var res []idx.SearchResult
		op("batch", 64, func() (idx.TupleID, bool, error) {
			var err error
			res, err = ix.SearchBatch(keys, res[:0])
			return 0, false, err
		})
		for j, r := range res {
			fmt.Fprintf(h, "%d %d %v;", keys[j], r.TID, r.Found)
		}
		phase("batch")

		op("delete", dup, func() (idx.TupleID, bool, error) {
			ok, err := ix.Delete(dup)
			return 0, ok, err
		})
		search(dup)
		phase("delete")
		pool.AttachTracer(nil)
	}
	checkGolden(t, "testdata/lookup.golden", got.Bytes())
}
