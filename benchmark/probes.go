package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	fpbtree "repro"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/filestore"
	"repro/internal/latch"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Isolated probes: each times one layer's public calls on their own, in
// nanoseconds per call, so that a cell's counter deltas can be turned
// into an estimated share of its time. A probe is the median of
// probeBatches batches, which a stray scheduler pause cannot move.
const probeBatches = 9

var sink uint64 // keeps probed loads alive

// prober runs the probes in order and keeps the first error.
type prober struct {
	m      map[string]float64
	tr     *tracer
	parent int
	err    error
}

// time stores under name+"_ns" the median over batches of the mean ns
// per call of fn.
func (p *prober) time(name string, calls int, fn func(i int) error) float64 {
	if p.err != nil {
		return 0
	}
	per := make([]float64, 0, probeBatches)
	start := time.Now()
	for b := 0; b < probeBatches; b++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			if err := fn(b*calls + i); err != nil {
				p.err = fmt.Errorf("%s: %w", name, err)
				return 0
			}
		}
		per = append(per, float64(time.Since(t0))/float64(calls))
	}
	p.tr.span(name, p.parent, start, time.Since(start), 0)
	p.m[name+"_ns"] = median(per)
	return p.m[name+"_ns"]
}

// runProbes fills m with every probe.* metric. smoke shrinks the call
// counts; the probes' files live under dir.
func runProbes(m map[string]float64, tr *tracer, parent int, dir string, smoke bool) error {
	n := 1
	if smoke {
		n = 20
	}
	p := &prober{m: m, tr: tr, parent: parent}

	start := time.Now()
	rows, err := core.BenchInPageSearch(0, 1_000_000/n)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if r.Impl == "swar" {
			m["probe.core.inpage_search_ns"] = r.NsPerOp
		}
	}
	tr.span("probe.core.inpage_search", parent, start, time.Since(start), 0)

	// Pool probes: 256 resident pages for the hit paths; 64 frames over
	// 4 096 stored pages visited in order, so every Get evicts and reads.
	const resident, stored = 256, 4096
	buf := make([]byte, pageSize)
	hot := buffer.NewConcurrentPool(buffer.NewMemStore(pageSize), 1024, 4)
	for i := 0; i < resident; i++ {
		pg, err := hot.NewPage()
		if err != nil {
			return err
		}
		hot.Unpin(pg, true)
	}
	getUnpin := func(pool *buffer.Pool, pages int) func(int) error {
		return func(i int) error {
			pg, err := pool.Get(uint32(i%pages) + 1)
			if err == nil {
				pool.Unpin(pg, false)
			}
			return err
		}
	}
	p.time("probe.buffer.get_hit", 200_000/n, getUnpin(hot, resident))
	m["probe.buffer.readopt_ns"] = 0 // stays 0 in a race build, which compiles the optimistic path out
	if hot.OptSupported() {
		p.time("probe.buffer.readopt", 200_000/n, func(i int) error {
			pg, ok := hot.ReadOpt(uint32(i%resident) + 1)
			if !ok || !hot.ValidateOpt(pg) {
				return fmt.Errorf("optimistic read of a resident, unlatched page failed")
			}
			sink += uint64(pg.Data[0])
			return nil
		})
	}

	mem := buffer.NewMemStore(pageSize)
	phys := pageSize + fault.TrailerSize
	raw, err := filestore.OpenFileStore(filepath.Join(dir, "probe-pages.db"), phys, true)
	if err != nil {
		return err
	}
	defer raw.Close()
	sums := fault.NewStatelessChecksumStore(raw)
	for pid := uint32(1); pid <= stored; pid++ {
		buf[0] = byte(pid)
		if _, err := mem.WritePage(pid, buf, 0); err != nil {
			return err
		}
		if _, err := sums.WritePage(pid, buf, 0); err != nil {
			return err
		}
	}
	p.time("probe.buffer.get_miss_mem", 20_000/n, getUnpin(buffer.NewConcurrentPool(mem, 64, 4), stored))
	p.time("probe.buffer.get_miss_file", 20_000/n, getUnpin(buffer.NewConcurrentPool(sums, 64, 4), stored))

	lt := latch.NewTable()
	p.time("probe.latch.rlock", 500_000/n, func(i int) error {
		pid := uint32(i%resident) + 1
		lt.RLock(pid)
		lt.RUnlock(pid)
		return nil
	})
	p.time("probe.latch.validate", 500_000/n, func(i int) error {
		pid := uint32(i%resident) + 1
		ver, ok := lt.ReadVersion(pid)
		if !ok || !lt.Validate(pid, ver) {
			return fmt.Errorf("validate of an unlatched page failed")
		}
		return nil
	})

	// The page file is read through the OS cache; the CRC cost is the
	// checksummed read minus the raw one over the same pages.
	physBuf := make([]byte, phys)
	rawNs := p.time("probe.filestore.read_page", 20_000/n, func(i int) error {
		_, err := raw.ReadPage(uint32(i*7%stored)+1, physBuf, 0)
		return err
	})
	sumNs := p.time("probe.fault.checksum_verify", 20_000/n, func(i int) error {
		_, err := sums.ReadPage(uint32(i*7%stored)+1, buf, 0)
		return err
	})
	m["probe.fault.checksum_verify_ns"] = sumNs - rawNs

	walDir := filepath.Join(dir, "probe-wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return err
	}
	log, err := wal.Start(walDir, wal.RecoveryResult{NextLSN: 1}, wal.Options{})
	if err != nil {
		return err
	}
	defer log.Close()
	p.time("probe.wal.append_page", 400/n+1, func(i int) error {
		_, err := log.AppendPage(uint32(i%stored)+1, physBuf)
		return err
	})
	p.time("probe.wal.commit_sync", 20/n+1, func(i int) error {
		lsn, err := log.AppendCommit(uint64(i), nil)
		if err == nil {
			err = log.Sync(lsn)
		}
		return err
	})

	var h obs.Histogram
	p.time("probe.obs.hist_record", 1_000_000/n, func(i int) error {
		h.Record(uint64(i))
		return nil
	})
	return p.err
}

// twinSearches is how many searches the model twin replays.
const twinSearches = 200_000

// runTwin replays the head of the workload's search stream on a
// single-threaded tree of each variant, where the memory simulator is
// live, and records what the model predicts per search. The counts
// depend on the keys alone, so they repeat exactly.
func runTwin(m map[string]float64, tr *tracer, parent int, sp spec, entries []fpbtree.Entry, keys []uint32) error {
	start := time.Now()
	for _, v := range variants {
		runtime.GC() // the previous twin's pool
		t, err := fpbtree.New(fpbtree.WithVariant(v), fpbtree.WithPageSize(pageSize), fpbtree.WithBufferPages(32768))
		if err != nil {
			return err
		}
		if err := t.Bulkload(entries, sp.fill); err != nil {
			return err
		}
		replay := func(ks []uint32) error {
			for _, k := range ks {
				if _, ok, err := t.Search(k); err != nil || !ok {
					return fmt.Errorf("twin %s: Search(%d) = (found %v, %v)", v, k, ok, err)
				}
			}
			return nil
		}
		warm := len(keys) / 5
		if err := replay(keys[:warm]); err != nil {
			return err
		}
		s0, c0 := t.Stats(), t.MetricsSnapshot()
		if err := replay(keys[warm:]); err != nil {
			return err
		}
		s1, c1 := t.Stats(), t.MetricsSnapshot()
		n := float64(len(keys) - warm)
		cycles := float64(s1.SimCycles - s0.SimCycles)
		m["memsim.cycles_per_search."+v.String()] = cycles / n
		m["memsim.dcache_stall_share."+v.String()] = float64(s1.CacheStallCycles-s0.CacheStallCycles) / cycles
		m["memsim.node_visits_per_search."+v.String()] = float64(c1.Counters["tree.node_visits"]-c0.Counters["tree.node_visits"]) / n
	}
	tr.span("twin.memsim", parent, start, time.Since(start), 0)
	return nil
}

// twinKeys picks the present keys the twin searches: the workload's own
// search stream, or uniform present keys when it has no searches.
func twinKeys(g *gen, streams [][]op, smoke bool) []uint32 {
	n := twinSearches
	if smoke {
		n = 5_000
	}
	n += n / 4 // the first fifth warms the simulated caches
	keys := make([]uint32, 0, n)
	for _, o := range streams[0] {
		if len(keys) == n {
			return keys
		}
		if o.kind == opSearchHit && o.key%2 == 1 {
			keys = append(keys, o.key)
		}
	}
	r := g.rng(-1)
	for len(keys) < n {
		keys = append(keys, bulkKey(uint32(r.Int63n(int64(g.keys)))))
	}
	return keys
}
