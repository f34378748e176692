package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	fpbtree "repro"
	"repro/internal/obs"
	"repro/internal/workload"
)

// servingDebug carries the -debug-addr observability wiring through
// the serving sweep: each cell's tree is published into cur so the
// debug server's /metrics, /snapshot and /trace handlers always read
// the live cell, and each tree is built with a trace ring plus the
// slow-op span threshold so sampled wall-clock spans land in /trace.
type servingDebug struct {
	cur         atomic.Pointer[fpbtree.Tree]
	traceEvents int
	slowOp      time.Duration
}

// snapshot polls the live cell's registry (empty before the first cell
// finishes bulkloading).
func (d *servingDebug) snapshot() obs.Snapshot {
	if t := d.cur.Load(); t != nil {
		return t.MetricsSnapshot()
	}
	return obs.Snapshot{}
}

// tracer exposes the live cell's trace ring, nil before the first cell.
func (d *servingDebug) tracer() *obs.Tracer {
	if t := d.cur.Load(); t != nil {
		return t.Obs().Tracer
	}
	return nil
}

// throughputEntry is one wall-clock serving measurement in the
// -benchjson report.
type throughputEntry struct {
	Workload  string  `json:"workload"`
	Threads   int     `json:"threads"`
	Seconds   float64 `json:"seconds"`
	Ops       uint64  `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50Nanos  uint64  `json:"p50_nanos"`
	P99Nanos  uint64  `json:"p99_nanos"`
	// Latch-protocol counters from the cell's metrics snapshot, so a
	// report shows whether the optimistic read path actually ran
	// latch-free (readonly ⇒ shared acquisitions and locked gets stay at
	// their bulkload/warmup baseline), how contended it was, and what
	// share of the writes still serialized (fallbacks over the sum of the
	// two write counters).
	OptRestarts    uint64 `json:"opt_restarts"`
	OptFallbacks   uint64 `json:"opt_fallbacks"`
	OptWrites      uint64 `json:"opt_writes"`
	OptWriteFalls  uint64 `json:"opt_write_fallbacks"`
	SharedLatches  uint64 `json:"shared_latch_acquisitions"`
	PoolLockedGets uint64 `json:"pool_locked_gets"`
}

// throughputSweep runs the wall-clock serving benchmark: a read-only
// thread sweep (1, 2, ... up to threads, powers of two) plus the mixed
// and scan workloads at full width. wl narrows the run to one workload
// ("all" runs the standard sweep).
func throughputSweep(wl string, threads, keys int, dur time.Duration, fileStore bool, dbg *servingDebug) ([]throughputEntry, error) {
	type cell struct {
		workload string
		threads  int
	}
	var cells []cell
	addSweep := func(name string) {
		for n := 1; n <= threads; n *= 2 {
			cells = append(cells, cell{name, n})
		}
		if cells[len(cells)-1].threads != threads {
			cells = append(cells, cell{name, threads}) // threads not a power of two
		}
	}
	switch wl {
	case "all":
		addSweep("readonly")
		cells = append(cells, cell{"mixed", threads}, cell{"scan", threads})
	case "readonly":
		addSweep("readonly")
	case "mixed", "scan":
		cells = append(cells, cell{wl, threads})
	default:
		return nil, fmt.Errorf("unknown workload %q (want readonly, mixed, scan, or all)", wl)
	}

	var out []throughputEntry
	for _, c := range cells {
		e, err := runThroughput(c.workload, c.threads, keys, dur, fileStore, dbg)
		if err != nil {
			return nil, err
		}
		fmt.Printf("# %-8s threads=%d  %.0f ops/sec  p50=%s p99=%s (%d ops in %.2fs, %d opt restarts)\n",
			e.Workload, e.Threads, e.OpsPerSec,
			time.Duration(e.P50Nanos), time.Duration(e.P99Nanos), e.Ops, e.Seconds, e.OptRestarts)
		out = append(out, e)
	}
	return out, nil
}

// runThroughput measures one (workload, threads) cell on a fresh tree
// — memory-resident by default, or over the durable file store with
// fileStore — `threads` goroutines issue operations for dur, recording
// per-op wall latency into one shared histogram.
func runThroughput(wl string, threads, keys int, dur time.Duration, fileStore bool, dbg *servingDebug) (throughputEntry, error) {
	opts := []fpbtree.Option{
		fpbtree.WithVariant(fpbtree.DiskFirst),
		fpbtree.WithConcurrency(threads),
	}
	if fileStore {
		dir, err := os.MkdirTemp("", "fpbench-store-*")
		if err != nil {
			return throughputEntry{}, err
		}
		defer os.RemoveAll(dir)
		opts = append(opts, fpbtree.WithStorePath(dir))
	}
	if dbg != nil {
		opts = append(opts,
			fpbtree.WithTracing(dbg.traceEvents),
			fpbtree.WithSlowOpSpans(dbg.slowOp))
	}
	tr, err := fpbtree.New(opts...)
	if err != nil {
		return throughputEntry{}, err
	}
	if dbg != nil {
		dbg.cur.Store(tr)
	}
	gen := workload.New(42)
	if err := tr.Bulkload(gen.BulkEntries(keys), 1.0); err != nil {
		return throughputEntry{}, err
	}
	// Warm the buffer pool so the measured phase serves residents.
	if _, err := tr.RangeScan(0, ^fpbtree.Key(0), nil); err != nil {
		return throughputEntry{}, err
	}

	var (
		hist     obs.Histogram
		totalOps atomic.Uint64
		stop     atomic.Bool
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		stop.Store(true)
	}

	start := time.Now()
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var (
				ops  uint64
				x    = uint32(2654435761*uint32(w) + 97)
				next = uint32(0) // per-thread disjoint insert counter
				t0   = time.Now()
			)
			for !stop.Load() {
				x = x*1664525 + 1013904223
				var err error
				switch {
				case wl == "scan":
					lo := fpbtree.Key(x%uint32(keys))*2 + 1
					_, err = tr.RangeScan(lo, lo+200, nil)
				case wl == "mixed" && x%10 == 0:
					// Disjoint even keys per thread, above the bulk range.
					k := fpbtree.Key(2 * (uint32(keys) + 1 + next*uint32(threads) + uint32(w)))
					next++
					err = tr.Insert(k, k+7)
				default:
					k := fpbtree.Key(x%uint32(keys))*2 + 1
					var tid fpbtree.TupleID
					var ok bool
					tid, ok, err = tr.Search(k)
					if err == nil && (!ok || tid != k+7) {
						fail(fmt.Errorf("%s: Search(%d) = (%d,%v), want (%d,true)", wl, k, tid, ok, k+7))
						return
					}
				}
				if err != nil {
					fail(fmt.Errorf("%s: %w", wl, err))
					return
				}
				t1 := time.Now()
				hist.Record(uint64(t1.Sub(t0)))
				t0 = t1
				ops++
			}
			totalOps.Add(ops)
		}(w)
	}
	timer := time.AfterFunc(dur, func() { stop.Store(true) })
	wg.Wait()
	timer.Stop()
	elapsed := time.Since(start)
	if firstErr != nil {
		return throughputEntry{}, firstErr
	}
	if n := tr.PinnedPages(); n != 0 {
		return throughputEntry{}, fmt.Errorf("%s threads=%d: %d pinned pages leaked", wl, threads, n)
	}
	snap := tr.MetricsSnapshot()
	return throughputEntry{
		Workload:       wl,
		Threads:        threads,
		Seconds:        elapsed.Seconds(),
		Ops:            totalOps.Load(),
		OpsPerSec:      float64(totalOps.Load()) / elapsed.Seconds(),
		P50Nanos:       hist.Quantile(0.50),
		P99Nanos:       hist.Quantile(0.99),
		OptRestarts:    snap.Counters["latch.opt_restarts"],
		OptFallbacks:   snap.Counters["latch.opt_fallbacks"],
		OptWrites:      snap.Counters["latch.opt_writes"],
		OptWriteFalls:  snap.Counters["latch.opt_write_fallbacks"],
		SharedLatches:  snap.Counters["latch.shared_acquisitions"],
		PoolLockedGets: snap.Counters["pool.shard.locked_gets"],
	}, nil
}
