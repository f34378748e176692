package core

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/idx"
	"repro/internal/obs"
	"repro/internal/treetest"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden")

// TestNodeKernelGolden pins what the pB+-Tree node kernel does, in
// simulate mode on 4 KB pages, for both trees in both leaf layouts:
// a bulkload, then a seeded mix of inserts, deletes, searches and
// scans in both directions. Each row records the memory model's
// cycles and fetches, the gap fills, the shift histogram and an FNV
// hash of every reachable page's bytes, so a change to any node
// kernel — search and its charge replay, dense or gapped insert,
// delete, spread, split — that moves one byte or one charge shows up
// here. Regenerate with -update only for an intended change.
func TestNodeKernelGolden(t *testing.T) {
	type row struct {
		name  string
		build func(env *treetest.Env, gapped bool) (idx.Index, func(*obs.Histogram), func() uint64, func() []uint32)
	}
	rows := []row{
		{"disk-first", func(env *treetest.Env, gapped bool) (idx.Index, func(*obs.Histogram), func() uint64, func() []uint32) {
			tr, err := NewDiskFirst(DiskFirstConfig{Pool: env.Pool, Model: env.Model, GappedLeaves: gapped})
			if err != nil {
				t.Fatal(err)
			}
			return tr, tr.AttachShiftHistogram, tr.GapFills, func() []uint32 { return dfReachable(t, tr) }
		}},
		{"cache-first", func(env *treetest.Env, gapped bool) (idx.Index, func(*obs.Histogram), func() uint64, func() []uint32) {
			tr, err := NewCacheFirst(CacheFirstConfig{Pool: env.Pool, Model: env.Model, GappedLeaves: gapped})
			if err != nil {
				t.Fatal(err)
			}
			return tr, tr.AttachShiftHistogram, tr.GapFills, func() []uint32 { return cfReachable(t, tr) }
		}},
	}
	var out strings.Builder
	for _, r := range rows {
		for _, gapped := range []bool{false, true} {
			layout := "dense"
			if gapped {
				layout = "gapped"
			}
			env := treetest.NewEnv(4<<10, 4096)
			tr, attach, gapFills, reachable := r.build(env, gapped)
			var h obs.Histogram
			attach(&h)
			nodeKernelWorkload(t, tr)
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("%s %s: %v", r.name, layout, err)
			}
			st := env.Model.Stats()
			pids := reachable()
			sum := fnv.New64a()
			for _, pid := range pids {
				pg, err := env.Pool.Get(pid)
				if err != nil {
					t.Fatal(err)
				}
				sum.Write(pg.Data)
				env.Pool.Unpin(pg, false)
			}
			hs := h.Snapshot()
			fmt.Fprintf(&out, "%s %s: cycles=%d fetches=%d gap_fills=%d pages=%d fnv=%#016x\n",
				r.name, layout, st.Cycles, st.MemFetches, gapFills(), len(pids), sum.Sum64())
			fmt.Fprintf(&out, "  shift: count=%d sum=%d min=%d max=%d p50=%d p99=%d buckets=%v\n",
				hs.Count, hs.Sum, hs.Min, hs.Max, hs.P50, hs.P99, hs.Buckets)
		}
	}
	golden := filepath.Join("testdata", "nodekernel.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("node kernel output diverged from %s:\n--- got\n%s--- want\n%s", golden, got, want)
	}
}

// nodeKernelWorkload bulkloads 3,000 strided keys and runs a seeded
// 6,000-op mix: 45 % inserts (clustered runs and random keys), 20 %
// deletes, 25 % searches, 10 % scans (a fifth of them reverse).
func nodeKernelWorkload(t *testing.T, tr idx.Index) {
	t.Helper()
	const n, span = 3000, 8 * 3000
	if err := tr.Bulkload(treetest.GenEntries(n, 0, 8), 0.75); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(36))
	for op := 0; op < 6000; op++ {
		k := idx.Key(rng.Intn(span))
		var err error
		switch p := rng.Intn(100); {
		case p < 25: // a run of neighbours: the gapped layout's case
			for j := idx.Key(1); j <= 4 && err == nil; j++ {
				err = tr.Insert(k+j, k+j+7)
			}
		case p < 45:
			err = tr.Insert(k, k+7)
		case p < 65:
			_, err = tr.Delete(k &^ 7)
		case p < 90:
			_, _, err = tr.Search(k)
		case p < 98:
			_, err = tr.RangeScan(k, k+200, func(idx.Key, idx.TupleID) bool { return true })
		default:
			_, err = tr.RangeScanReverse(k, k+200, func(idx.Key, idx.TupleID) bool { return true })
		}
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
}

// dfReachable lists every page reachable from a disk-first tree's root.
func dfReachable(t *testing.T, tr *DiskFirst) []uint32 {
	root, height := tr.RootHeight()
	var out []uint32
	level := []uint32{root}
	for h := height; h > 0; h-- {
		out = append(out, level...)
		if h == 1 {
			break
		}
		var next []uint32
		for _, pid := range level {
			pg, err := tr.pool.Get(pid)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range tr.collectEntries(pg.Data) {
				next = append(next, e.TID)
			}
			tr.pool.Unpin(pg, false)
		}
		level = next
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// cfReachable lists every page holding a node reachable from a
// cache-first tree's root.
func cfReachable(t *testing.T, tr *CacheFirst) []uint32 {
	seen := map[uint32]bool{}
	var walk func(at ptr, lvl int)
	walk = func(at ptr, lvl int) {
		seen[at.pid] = true
		if lvl == 1 {
			return
		}
		pg, err := tr.pool.Get(at.pid)
		if err != nil {
			t.Fatal(err)
		}
		var kids []ptr
		for i := 0; i < tr.count(pg.Data, at.off); i++ {
			kids = append(kids, tr.cChild(pg.Data, at.off, i))
		}
		tr.pool.Unpin(pg, false)
		for _, c := range kids {
			walk(c, lvl-1)
		}
	}
	root, height := tr.rootPtrHeight()
	walk(root, height)
	out := make([]uint32, 0, len(seen))
	for pid := range seen {
		out = append(out, pid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
