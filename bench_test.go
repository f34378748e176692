package fpbtree

import (
	"io"
	"testing"

	"repro/internal/harness"
	"repro/internal/workload"
)

// --- Paper table/figure benchmarks ---
//
// One benchmark per table and figure of the evaluation section. Each
// iteration regenerates the table at the quick scale; run with
// `go test -bench=Fig -benchtime=1x` for a single regeneration, or use
// cmd/fpbench for the default/paper scales with printed output.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	p, err := harness.ParamsFor("quick")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := harness.Run(id, p)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
	}
}

func BenchmarkFig03SearchBreakdown(b *testing.B)  { benchExperiment(b, "fig3b") }
func BenchmarkTable2Sizing(b *testing.B)          { benchExperiment(b, "table2") }
func BenchmarkFig10Search(b *testing.B)           { benchExperiment(b, "fig10") }
func BenchmarkFig11Widths(b *testing.B)           { benchExperiment(b, "fig11") }
func BenchmarkFig12BulkloadFactor(b *testing.B)   { benchExperiment(b, "fig12") }
func BenchmarkFig13Insert(b *testing.B)           { benchExperiment(b, "fig13") }
func BenchmarkFig14Delete(b *testing.B)           { benchExperiment(b, "fig14") }
func BenchmarkFig15Scan(b *testing.B)             { benchExperiment(b, "fig15") }
func BenchmarkFig16Space(b *testing.B)            { benchExperiment(b, "fig16") }
func BenchmarkFig17SearchIO(b *testing.B)         { benchExperiment(b, "fig17") }
func BenchmarkFig18ScanIO(b *testing.B)           { benchExperiment(b, "fig18") }
func BenchmarkFig19DB2(b *testing.B)              { benchExperiment(b, "fig19") }
func BenchmarkAblationDesignChoices(b *testing.B) { benchExperiment(b, "ablation") }
func BenchmarkSec21MultipageNodes(b *testing.B)   { benchExperiment(b, "sec21") }

// --- Per-operation micro-benchmarks ---
//
// These measure the Go implementation's real (wall-clock) per-operation
// cost for each variant; the simulated-cycle numbers the paper reports
// come from the experiment benchmarks above.

func benchTree(b *testing.B, v Variant, keys int) (*Tree, *workload.Gen) {
	b.Helper()
	tr, err := New(WithVariant(v), WithBufferPages(keys/64+4096))
	if err != nil {
		b.Fatal(err)
	}
	g := workload.New(7)
	if err := tr.Bulkload(g.BulkEntries(keys), 0.8); err != nil {
		b.Fatal(err)
	}
	return tr, g
}

func forEachVariant(b *testing.B, fn func(b *testing.B, v Variant)) {
	for _, v := range []Variant{DiskOptimized, MicroIndex, DiskFirst, CacheFirst} {
		b.Run(v.String(), func(b *testing.B) { fn(b, v) })
	}
}

func BenchmarkOpSearch(b *testing.B) {
	forEachVariant(b, func(b *testing.B, v Variant) {
		tr, g := benchTree(b, v, 500000)
		keys := g.SearchKeys(500000, 4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok, err := tr.Search(keys[i%len(keys)]); err != nil || !ok {
				b.Fatalf("search: %v %v", ok, err)
			}
		}
	})
}

// BenchmarkSearchCold is the wall-clock Fig. 10 without the 25 s
// harness: point lookups of uniformly random present keys in the
// serving mode (latch-free reads) over 16 M keys at fill 1.0 — about
// 128 MB of leaf pages, far beyond the LLC and all resident in the
// pool — so nearly every node visited is a DRAM miss, which is what the
// fractal variants' node prefetch shortens. disk-optimized is the
// prefetch-free control. `fpbench -inpage` measures warm nodes and
// cannot show this.
func BenchmarkSearchCold(b *testing.B) {
	const keys = 16 << 20
	entries := make([]Entry, keys)
	for i := range entries {
		k := Key(2*i + 1)
		entries[i] = Entry{Key: k, TID: TupleID(k + 7)}
	}
	// Each tree is built once, not once per b.N round: set-up is a
	// second or more, the measured loop a microsecond per op.
	for _, v := range []Variant{DiskOptimized, MicroIndex, DiskFirst, CacheFirst} {
		tr, err := New(WithVariant(v), WithConcurrency(1), WithBufferPages(12288))
		if err != nil {
			b.Fatal(err)
		}
		if err := tr.Bulkload(entries, 1.0); err != nil {
			b.Fatal(err)
		}
		b.Run(v.String(), func(b *testing.B) {
			x := uint64(88172645463325252)
			for i := 0; i < b.N; i++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				k := Key(x%keys)*2 + 1
				if tid, ok, err := tr.Search(k); err != nil || !ok || tid != TupleID(k+7) {
					b.Fatalf("Search(%d) = (%d, %v, %v)", k, tid, ok, err)
				}
			}
		})
	}
}

func BenchmarkOpInsert(b *testing.B) {
	forEachVariant(b, func(b *testing.B, v Variant) {
		tr, g := benchTree(b, v, 200000)
		es := g.InsertEntries(200000, 200000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := es[i%len(es)]
			if err := tr.Insert(e.Key, e.TID); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkOpDelete(b *testing.B) {
	forEachVariant(b, func(b *testing.B, v Variant) {
		tr, _ := benchTree(b, v, 500000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := Key(i%500000)*2 + 1
			if _, err := tr.Delete(k); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkOpRangeScan1K(b *testing.B) {
	forEachVariant(b, func(b *testing.B, v Variant) {
		tr, g := benchTree(b, v, 500000)
		scans, err := g.RangeScans(500000, 1000, 256)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		total := 0
		for i := 0; i < b.N; i++ {
			sc := scans[i%len(scans)]
			n, err := tr.RangeScan(sc.Start, sc.End, nil)
			if err != nil {
				b.Fatal(err)
			}
			total += n
		}
		if total == 0 {
			b.Fatal("scans returned nothing")
		}
	})
}

func BenchmarkOpBulkload(b *testing.B) {
	forEachVariant(b, func(b *testing.B, v Variant) {
		g := workload.New(7)
		es := g.BulkEntries(200000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr, err := New(WithVariant(v), WithBufferPages(16384))
			if err != nil {
				b.Fatal(err)
			}
			if err := tr.Bulkload(es, 1.0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExampleOutput exercises the text rendering path.
func BenchmarkExampleOutput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := RunExperiment("table2", "quick", io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
