package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/idx"
	"repro/internal/obs"
	"repro/internal/treetest"
)

func dfGappedFactory(jpa bool) treetest.Factory {
	return func(t *testing.T, env *treetest.Env) idx.Index {
		tr, err := NewDiskFirst(DiskFirstConfig{
			Pool: env.Pool, Model: env.Model, EnableJPA: jpa, GappedLeaves: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
}

func cfGappedFactory(jpa bool) treetest.Factory {
	return func(t *testing.T, env *treetest.Env) idx.Index {
		tr, err := NewCacheFirst(CacheFirstConfig{
			Pool: env.Pool, Model: env.Model, EnableJPA: jpa, GappedLeaves: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
}

// The full conformance suite over gapped leaves: every operation kind,
// splits, lazy deletion, scans in both directions, batches, scavenge.
func TestDiskFirstGappedConformance4K(t *testing.T) {
	treetest.Run(t, 4<<10, dfGappedFactory(false))
}

func TestDiskFirstGappedConformance16K(t *testing.T) {
	treetest.Run(t, 16<<10, dfGappedFactory(true))
}

func TestCacheFirstGappedConformance4K(t *testing.T) {
	treetest.Run(t, 4<<10, cfGappedFactory(false))
}

func TestCacheFirstGappedConformance16K(t *testing.T) {
	treetest.Run(t, 16<<10, cfGappedFactory(true))
}

// Churn under fault injection: inserts and deletes repeatedly punch and
// fill gaps while pages fail, so the sentinel bookkeeping has to survive
// splits, retries, and scavenges.
func TestGappedChaos(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		seed := seed
		t.Run(fmt.Sprintf("diskfirst/seed%d", seed), func(t *testing.T) {
			treetest.RunChaos(t, 4<<10, dfGappedFactory(false), seed, 6000)
		})
		t.Run(fmt.Sprintf("cachefirst/seed%d", seed), func(t *testing.T) {
			treetest.RunChaos(t, 4<<10, cfGappedFactory(false), seed, 6000)
		})
	}
}

// The gap sentinel key is rejected at the API boundary in gapped mode
// (it would be indistinguishable from an empty slot) and accepted in
// the default dense mode.
func TestGappedSentinelKeyRejected(t *testing.T) {
	env := treetest.NewEnv(4<<10, 256)
	dfG, err := NewDiskFirst(DiskFirstConfig{Pool: env.Pool, Model: env.Model, GappedLeaves: true})
	if err != nil {
		t.Fatal(err)
	}
	cfG, err := NewCacheFirst(CacheFirstConfig{Pool: env.Pool, Model: env.Model, GappedLeaves: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []idx.Index{dfG, cfG} {
		if err := tr.Insert(^idx.Key(0), 1); err == nil || !strings.Contains(err.Error(), "sentinel") {
			t.Errorf("%s: gapped Insert(max key) = %v, want sentinel rejection", tr.Name(), err)
		}
	}
	env2 := treetest.NewEnv(4<<10, 256)
	dfD, err := NewDiskFirst(DiskFirstConfig{Pool: env2.Pool, Model: env2.Model})
	if err != nil {
		t.Fatal(err)
	}
	if err := dfD.Insert(^idx.Key(0), 1); err != nil {
		t.Errorf("dense Insert(max key) = %v, want success", err)
	}
	if _, ok, _ := dfD.Search(^idx.Key(0)); !ok {
		t.Error("dense Search(max key) after insert = false")
	}
}

// refGappedLeafSearch is the linear reference over a physical gapped
// layout: the answer slot is the highest live slot whose key is < k
// (lt) or <= k (!lt); exact reports a live equal key under !lt.
func refGappedLeafSearch(keys []idx.Key, k idx.Key, lt bool) (int, bool) {
	slot, anyEq := -1, false
	for i, kk := range keys {
		if kk == gapSentinel {
			continue
		}
		if kk < k || (!lt && kk == k) {
			slot = i
		}
		if kk == k {
			anyEq = true
		}
	}
	return slot, !lt && anyEq
}

// Gapped SWAR search agrees with the linear reference on every leaf
// node of a tree that has both spread gaps (from bulkload) and punched
// gaps (from deletes), for both variants.
func TestGappedSearchEquivalence(t *testing.T) {
	probeAll := func(t *testing.T, physical []idx.Key, search func(k idx.Key, lt bool) (int, bool)) {
		t.Helper()
		var live []idx.Key
		for _, k := range physical {
			if k != gapSentinel {
				live = append(live, k)
			}
		}
		for _, k := range probeKeys(live) {
			for _, lt := range []bool{false, true} {
				got, gotEx := search(k, lt)
				want, wantEx := refGappedLeafSearch(physical, k, lt)
				if got != want || gotEx != wantEx {
					t.Fatalf("gapped search(k=%d, lt=%v) = (%d,%v), want (%d,%v) over %v",
						k, lt, got, gotEx, want, wantEx, physical)
				}
			}
		}
	}

	entries := make([]idx.Entry, 900)
	for i := range entries {
		entries[i] = idx.Entry{Key: idx.Key(3*i + 5), TID: idx.TupleID(3*i + 12)}
	}

	t.Run("diskfirst", func(t *testing.T) {
		env := treetest.NewEnv(16<<10, 256)
		tr, err := NewDiskFirst(DiskFirstConfig{Pool: env.Pool, Model: env.Model, GappedLeaves: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Bulkload(entries, 0.7); err != nil {
			t.Fatal(err)
		}
		// Punch extra gaps at arbitrary slots, including first-in-node.
		for i := 0; i < len(entries); i += 7 {
			if _, err := tr.Delete(entries[i].Key); err != nil {
				t.Fatal(err)
			}
		}
		rootPID, height := tr.RootHeight()
		if height != 1 {
			t.Fatalf("tree has %d page levels, want 1", height)
		}
		pg, err := tr.pool.Get(rootPID)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.pool.Unpin(pg, false)
		nodes := 0
		for off := dfFirstLeaf(pg.Data); off != 0; off = tr.lNext(pg.Data, off) {
			physical := make([]idx.Key, tr.capL)
			for i := range physical {
				physical[i] = tr.key(pg.Data, off, i)
			}
			probeAll(t, physical, func(k idx.Key, lt bool) (int, bool) {
				return tr.search(pg, off, k, lt)
			})
			nodes++
		}
		if nodes < 2 {
			t.Fatalf("only %d leaf nodes exercised", nodes)
		}
	})

	t.Run("cachefirst", func(t *testing.T) {
		env := treetest.NewEnv(16<<10, 256)
		tr, err := NewCacheFirst(CacheFirstConfig{Pool: env.Pool, Model: env.Model, GappedLeaves: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Bulkload(entries, 0.7); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(entries); i += 7 {
			if _, err := tr.Delete(entries[i].Key); err != nil {
				t.Fatal(err)
			}
		}
		nodes := 0
		for cur := tr.firstLeafPtr(); !cur.isNil(); {
			pg, err := tr.pool.Get(cur.pid)
			if err != nil {
				t.Fatal(err)
			}
			physical := make([]idx.Key, tr.capL)
			for i := range physical {
				physical[i] = tr.key(pg.Data, cur.off, i)
			}
			probeAll(t, physical, func(k idx.Key, lt bool) (int, bool) {
				return tr.search(pg, cur.off, k, lt)
			})
			next := tr.cNextLeaf(pg.Data, cur.off)
			tr.pool.Unpin(pg, false)
			cur = next
			nodes++
		}
		if nodes < 2 {
			t.Fatalf("only %d leaf nodes exercised", nodes)
		}
	})
}

// gappedShiftWorkload bulkloads strided anchors and then inserts
// sequential runs between them — the localized-insert mix gapped slots
// exist for. Returns the shift histogram and the gap-fill count.
func gappedShiftWorkload(t *testing.T, tr idx.Index, attach func(*obs.Histogram), gapFills func() uint64) (obs.HistSnapshot, uint64) {
	t.Helper()
	var h obs.Histogram
	attach(&h)
	const anchors = 1200
	es := make([]idx.Entry, anchors)
	for i := range es {
		k := idx.Key(100 + 30*i)
		es[i] = idx.Entry{Key: k, TID: idx.TupleID(k + 7)}
	}
	if err := tr.Bulkload(es, 0.8); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < anchors; i += 3 {
		base := idx.Key(100 + 30*i)
		for j := idx.Key(1); j <= 8; j++ {
			if err := tr.Insert(base+j, idx.TupleID(base+j+7)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return h.Snapshot(), gapFills()
}

// On a sequential-heavy insert mix, gapped leaves must move at least 4x
// fewer keys per insert than the dense layout (the tentpole's headline
// win), and a healthy share of inserts must land in a gap for free.
func TestGappedInsertShiftReduction(t *testing.T) {
	type variant struct {
		name  string
		build func(env *treetest.Env, gapped bool) (idx.Index, func(*obs.Histogram), func() uint64)
	}
	variants := []variant{
		{"diskfirst", func(env *treetest.Env, gapped bool) (idx.Index, func(*obs.Histogram), func() uint64) {
			tr, err := NewDiskFirst(DiskFirstConfig{Pool: env.Pool, Model: env.Model, GappedLeaves: gapped})
			if err != nil {
				t.Fatal(err)
			}
			return tr, tr.AttachShiftHistogram, tr.GapFills
		}},
		{"cachefirst", func(env *treetest.Env, gapped bool) (idx.Index, func(*obs.Histogram), func() uint64) {
			tr, err := NewCacheFirst(CacheFirstConfig{Pool: env.Pool, Model: env.Model, GappedLeaves: gapped})
			if err != nil {
				t.Fatal(err)
			}
			return tr, tr.AttachShiftHistogram, tr.GapFills
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			envD := treetest.NewEnv(16<<10, 4096)
			trD, attachD, fillsD := v.build(envD, false)
			dense, denseFills := gappedShiftWorkload(t, trD, attachD, fillsD)

			envG := treetest.NewEnv(16<<10, 4096)
			trG, attachG, fillsG := v.build(envG, true)
			gapped, gappedFills := gappedShiftWorkload(t, trG, attachG, fillsG)

			if dense.Count == 0 || gapped.Count == 0 {
				t.Fatalf("histograms unpopulated: dense %d, gapped %d inserts", dense.Count, gapped.Count)
			}
			if dense.Count != gapped.Count {
				t.Fatalf("insert counts diverge: dense %d, gapped %d", dense.Count, gapped.Count)
			}
			if denseFills != 0 {
				t.Errorf("dense layout reported %d gap fills", denseFills)
			}
			dMean := dense.Mean()
			gMean := gapped.Mean()
			t.Logf("%s: mean keys shifted per insert: dense %.2f, gapped %.2f (%.1fx); gap fills %d/%d",
				v.name, dMean, gMean, dMean/(gMean+1e-9), gappedFills, gapped.Count)
			if dMean < 4*gMean {
				t.Errorf("gapped shifts %.2f keys/insert, dense %.2f — want >= 4x reduction", gMean, dMean)
			}
			if gappedFills == 0 {
				t.Error("no insert ever landed in an adjacent gap")
			}
		})
	}
}
