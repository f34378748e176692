package fpbtree

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
)

// TestObservabilitySurface drives every variant through each operation
// and asserts the tree.* counters, op.* latency histograms, space
// stats, and trace export all reflect the work done.
func TestObservabilitySurface(t *testing.T) {
	for _, v := range allVariants() {
		t.Run(v.String(), func(t *testing.T) {
			tr, err := New(WithVariant(v), WithPageSize(4<<10), WithBufferPages(16384),
				WithTracing(1<<12))
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Tracing() {
				t.Fatal("WithTracing did not enable the tracer")
			}
			g := workload.New(3)
			es := g.BulkEntries(20000)
			if err := tr.Bulkload(es, 1.0); err != nil {
				t.Fatal(err)
			}

			for i := 0; i < 10; i++ {
				if _, ok, err := tr.Search(es[i*7].Key); err != nil || !ok {
					t.Fatalf("search: %v %v", ok, err)
				}
			}
			if err := tr.Insert(es[0].Key+1, 99); err != nil {
				t.Fatal(err)
			}
			if _, err := tr.Delete(es[1].Key); err != nil {
				t.Fatal(err)
			}
			if _, err := tr.RangeScan(es[10].Key, es[500].Key, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := tr.RangeScanReverse(es[10].Key, es[500].Key, nil); err != nil {
				t.Fatal(err)
			}
			keys := []Key{es[3].Key, es[4].Key, es[5].Key}
			if _, err := tr.SearchBatch(keys); err != nil {
				t.Fatal(err)
			}

			ops := tr.OpStats()
			if ops.Searches != 10 || ops.Inserts != 1 || ops.Deletes != 1 ||
				ops.Scans != 1 || ops.ReverseScans != 1 || ops.Batches != 1 || ops.BatchedKeys != 3 {
				t.Fatalf("op counters wrong: %+v", ops)
			}
			if ops.NodeVisits == 0 {
				t.Fatalf("no node visits counted: %+v", ops)
			}

			snap := tr.MetricsSnapshot()
			if snap.Counters["tree.searches"] != 10 {
				t.Fatalf("tree.searches = %d, want 10", snap.Counters["tree.searches"])
			}
			if snap.Counters["mem.cycles"] == 0 || snap.Counters["buffer.gets"] == 0 {
				t.Fatalf("substrate counters missing: %v", snap.Counters)
			}
			for _, h := range []string{"op.search.cycles", "op.insert.cycles", "op.delete.cycles",
				"op.scan.cycles", "op.scan_rev.cycles", "op.batch.cycles", "op.search.micros"} {
				hs, ok := snap.Histograms[h]
				if !ok {
					t.Fatalf("histogram %s missing from snapshot", h)
				}
				if h == "op.search.cycles" && hs.Count != 10 {
					t.Fatalf("%s count = %d, want 10", h, hs.Count)
				}
			}
			if snap.Histograms["op.search.cycles"].Max == 0 {
				t.Fatal("search latency histogram recorded zero cycles")
			}

			// Op spans land in the trace with end >= begin on both clocks.
			var spans int
			for _, e := range tr.TraceTail(1 << 12) {
				if e.Kind >= obs.EvOpSearch && e.Kind <= obs.EvOpBatch {
					spans++
					if e.A < e.Cyc || e.B < e.Us {
						t.Fatalf("span with reversed clocks: %+v", e)
					}
				}
			}
			if spans != 15 {
				t.Fatalf("trace holds %d op spans, want 15", spans)
			}

			st, err := tr.SpaceStats()
			if err != nil {
				t.Fatal(err)
			}
			if st.Pages == 0 || st.LeafPages == 0 || st.Entries == 0 {
				t.Fatalf("space stats empty: %+v", st)
			}
			if st.Pages != st.LeafPages+st.NodePages+st.OtherPages {
				t.Fatalf("space stats inconsistent: %+v", st)
			}
			if st.Utilization <= 0 || st.Utilization > 1.05 {
				t.Fatalf("utilization %v out of range", st.Utilization)
			}

			var buf bytes.Buffer
			if err := tr.WriteTrace(&buf); err != nil {
				t.Fatal(err)
			}
			var parsed map[string]any
			if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
				t.Fatalf("trace JSON does not parse: %v", err)
			}
			if _, ok := parsed["traceEvents"]; !ok {
				t.Fatal("trace JSON lacks traceEvents")
			}

			tr.ResetOpStats()
			if got := tr.OpStats(); got != (OpStats{}) {
				t.Fatalf("ResetOpStats left %+v", got)
			}
		})
	}
}

// TestTraceDisabledByDefault asserts tracing stays off (and cheap)
// unless asked for.
func TestTraceDisabledByDefault(t *testing.T) {
	tr, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Tracing() {
		t.Fatal("tracer enabled without WithTracing")
	}
	if evs := tr.TraceTail(10); evs != nil {
		t.Fatalf("TraceTail without tracer = %v, want nil", evs)
	}
	var buf bytes.Buffer
	if err := tr.WriteTrace(&buf); err == nil {
		t.Fatal("WriteTrace without tracer must fail")
	}
}

// TestSearchBatchWarmAllocsTraced extends the repo's allocation-free
// batch guarantee to instrumented trees: a warm SearchBatchInto must
// stay at 0 allocs/op with tracing enabled or disabled.
func TestSearchBatchWarmAllocsTraced(t *testing.T) {
	for _, traced := range []bool{false, true} {
		name := "metrics-only"
		if traced {
			name = "traced"
		}
		t.Run(name, func(t *testing.T) {
			opts := []Option{WithVariant(DiskFirst), WithPageSize(4 << 10), WithBufferPages(16384)}
			if traced {
				opts = append(opts, WithTracing(1<<12))
			}
			tr, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			g := workload.New(5)
			es := g.BulkEntries(20000)
			if err := tr.Bulkload(es, 1.0); err != nil {
				t.Fatal(err)
			}
			keys := make([]Key, 64)
			for i := range keys {
				keys[i] = es[i*31].Key
			}
			out := make([]SearchResult, 0, len(keys))
			// Warm up: first call may grow internal scratch.
			if out, err = tr.SearchBatchInto(keys, out[:0]); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				out, err = tr.SearchBatchInto(keys, out[:0])
				if err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("warm SearchBatchInto allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// TestSearchWarmAllocs: a warm point lookup allocates nothing on any
// variant, in the simulated mode (latched descent through the visit
// helpers) and in the serving mode (latch-free descent), with the
// hardware prefetch on both paths.
func TestSearchWarmAllocs(t *testing.T) {
	for _, v := range []Variant{DiskFirst, CacheFirst, DiskOptimized, MicroIndex} {
		for _, serving := range []bool{false, true} {
			name := v.String() + "/simulated"
			opts := []Option{WithVariant(v), WithPageSize(4 << 10), WithBufferPages(4096)}
			if serving {
				name = v.String() + "/serving"
				opts = append(opts, WithConcurrency(2))
			}
			t.Run(name, func(t *testing.T) {
				tr, err := New(opts...)
				if err != nil {
					t.Fatal(err)
				}
				es := workload.New(5).BulkEntries(20000)
				if err := tr.Bulkload(es, 0.8); err != nil {
					t.Fatal(err)
				}
				i := 0
				search := func() {
					e := es[i*31%len(es)]
					i++
					if tid, ok, err := tr.Search(e.Key); err != nil || !ok || tid != e.TID {
						t.Fatalf("Search(%d) = (%d, %v, %v), want (%d, true, nil)", e.Key, tid, ok, err, e.TID)
					}
				}
				for n := 0; n < 2000; n++ {
					search()
				}
				if allocs := testing.AllocsPerRun(500, search); allocs != 0 {
					t.Fatalf("warm Search allocates %.1f objects/op, want 0", allocs)
				}
			})
		}
	}
}
