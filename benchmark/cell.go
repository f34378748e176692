package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	fpbtree "repro"
	"repro/internal/obs"
	"repro/internal/wal"
)

const (
	pageSize    = 16 << 10
	slicesFixed = 7  // slices of a one-epoch cell
	sampleEvery = 64 // traced run: one op span in this many
	warmPercent = 5

	// The clients of a run's first cell warm up for warmFirst, those of
	// the later cells for warmRest. In this sandbox the guest kernel can
	// leave the two client threads of a process that has so far run one
	// thread at a time on one CPU, the other idle, for about a second
	// (each op then stalls for a 4 ms tick now and again and the slice
	// runs at half its rate); the later cells start spread out.
	warmFirst = 1500 * time.Millisecond
	warmRest  = 300 * time.Millisecond

	// tail_us is the mean latency of the ops ranked between these two
	// quantiles: the slowest 0.5 % without the slowest 0.1 %. A single
	// quantile is not steady enough to gate on. On mixed-contend about
	// 0.7 % of cache-first's ops park on its writer lock for 80 to 200 µs
	// and a few for a 4 ms tick, so p99 falls in the gap between 6 µs and
	// 80 µs and p99.9 in the one between 110 µs and 200 µs: each flipped
	// from run to run by 25 % and more, while the band's mean moved by 5 %.
	// Above p99.9 sit the rare 4 ms stalls, whose number varies too much.
	tailLo, tailHi = 0.995, 0.999
)

// serveCounters are read as deltas around the measured slices only;
// writeCounters from the start of the measured phase to the end of the
// cell, crash checks and recovery included, summed over the tree's
// incarnations (a reopened tree starts its registry from zero).
var (
	serveCounters = []string{
		"buffer.gets", "buffer.hits", "buffer.evictions", "buffer.prefetch_issued",
		"pool.shard.locked_gets", "latch.opt_restarts", "latch.opt_fallbacks",
		"latch.shared_acquisitions", "latch.exclusive_acquisitions",
		"latch.reader_waits", "latch.writer_waits", "filestore.reads",
		"wal.bytes_written", "wal.appends", "wal.fsyncs",
	}
	writeCounters = []string{
		"wal.bytes_written", "filestore.bytes_written", "wal.appends", "wal.fsyncs", "wal.rotations",
	}
)

// cellResult is everything one variant's cell measured.
type cellResult struct {
	variant string
	setup   time.Duration

	sliceOps  []int // completed ops per slice, all clients
	sliceDur  []time.Duration
	sliceTail []float64 // ns, the slice's mean latency between tailLo and tailHi
	sliceP999 []float64 // ns, for the report only
	traced    []bool    // slice ran with span sampling on

	failed        int // wrong answers; every measured op when a check failed
	checkFailures []string

	pages, live int
	txns        int    // Commits acknowledged in the write window
	userBytes   uint64 // 8 B per key acknowledged in the write window
	setupStored uint64 // bytes set-up wrote to the WAL and the page file
	serve       map[string]uint64
	write       map[string]uint64
	commitNs    []int64
	reopenNs    []int64
	pageFile    []int64 // pages.db size before the first crash, then after each reopen
	spanNs      map[string][]int64
}

func (r *cellResult) measuredOps() int {
	n := 0
	for _, o := range r.sliceOps {
		n += o
	}
	return n
}

func (r *cellResult) measuredTime() time.Duration {
	var d time.Duration
	for _, x := range r.sliceDur {
		d += x
	}
	return d
}

// client is one closed-loop caller: it issues its next op when the
// previous one returned.
type client struct {
	id        int
	cell      *cell
	h         hist
	failed    int
	inserted  int
	deleted   int
	firstFail string
	sampleN   uint32
	samples   []opSample
}

type opSample struct {
	kind       string
	start, dur int64 // ns since the trace epoch
}

// cell is the live state of one variant's run.
type cell struct {
	seed    int64
	opts    []fpbtree.Option
	dir     string
	tree    *fpbtree.Tree
	tag     uint64 // last Commit or Checkpoint tag; only the goroutine that commits touches it
	clients []*client
	tr      *tracer
	res     cellResult
	live    int    // keys the tree must hold now
	fresh   uint32 // client 0's next unused fresh-key index
	g       *gen
}

func (c *cell) nextTag() uint64 {
	c.tag++
	return c.tag
}

func (c *cell) checkFail(format string, args ...any) {
	c.res.checkFailures = append(c.res.checkFailures, fmt.Sprintf(format, args...))
}

func (cl *client) fail(format string, args ...any) {
	cl.failed++
	if cl.firstFail == "" {
		cl.firstFail = fmt.Sprintf(format, args...)
	}
}

// sample keeps every span when all is set, else one in sampleEvery.
func (cl *client) sample(kind string, start time.Time, dur time.Duration, all bool) {
	if !all {
		cl.sampleN++
		if cl.sampleN%sampleEvery != 0 {
			return
		}
	}
	cl.samples = append(cl.samples, opSample{kind, int64(start.Sub(cl.cell.tr.epoch)), int64(dur)})
}

// run issues ops in order, checking every answer against the
// generator's truth. One clock read per op: an op's end is the next
// op's start.
func (cl *client) run(ops []op, traced bool) {
	c := cl.cell
	tree, seed := c.tree, c.seed
	exactScans := c.g.readOnly()
	t0 := time.Now()
	for i := range ops {
		o := &ops[i]
		var kind string
		switch o.kind {
		case opSearchHit:
			kind = "fpbtree.search"
			tid, ok, err := tree.Search(o.key)
			if err != nil || !ok || tid != tidOf(o.key, seed) {
				cl.fail("Search(%d) = (%d, %v, %v), want (%d, true)", o.key, tid, ok, err, tidOf(o.key, seed))
			}
		case opSearchMiss:
			kind = "fpbtree.search"
			if _, ok, err := tree.Search(o.key); err != nil || ok {
				cl.fail("Search(%d) = (found %v, %v), want absent", o.key, ok, err)
			}
		case opInsert:
			kind = "fpbtree.insert"
			if err := tree.Insert(o.key, tidOf(o.key, seed)); err != nil {
				cl.fail("Insert(%d): %v", o.key, err)
			} else {
				cl.inserted++
			}
		case opDelete:
			kind = "fpbtree.delete"
			if ok, err := tree.Delete(o.key); err != nil || !ok {
				cl.fail("Delete(%d) = (%v, %v), want true", o.key, ok, err)
			} else {
				cl.deleted++
			}
		case opScan:
			kind = "fpbtree.scan"
			n, err := tree.RangeScan(o.key, o.key+2*uint32(o.n), nil)
			want := int(o.n) + 1
			if err != nil || n < want || n > 2*want-1 || (exactScans && n != want) {
				cl.fail("RangeScan(%d, +%d keys) = (%d, %v), want %d", o.key, o.n, n, err, want)
			}
		case opTxn:
			kind = "fpbtree.txn"
			cl.txn(o.key, traced, false)
		}
		t1 := time.Now()
		d := t1.Sub(t0)
		cl.h.record(uint64(d))
		if traced {
			cl.sample(kind, t0, d, false)
		}
		t0 = t1
	}
}

// txn inserts txnInserts fresh keys from index m and commits. Only a
// one-client workload may use it: Commit allows no op in flight. When
// traced it keeps one insert span in sampleEvery, or all of them.
func (cl *client) txn(m uint32, traced, all bool) {
	c := cl.cell
	ok := true
	for j := uint32(0); j < txnInserts; j++ {
		k := c.g.fresh.key(cl.id, m+j)
		t0 := time.Now()
		if err := c.tree.Insert(k, tidOf(k, c.seed)); err != nil {
			cl.fail("Insert(%d): %v", k, err)
			ok = false
		}
		if traced {
			cl.sample("fpbtree.insert", t0, time.Since(t0), all)
		}
	}
	t0 := time.Now()
	err := c.tree.Commit(c.nextTag())
	d := time.Since(t0)
	if err != nil {
		cl.fail("Commit: %v", err)
		ok = false
	}
	c.res.commitNs = append(c.res.commitNs, int64(d))
	if traced {
		cl.sample("fpbtree.commit", t0, d, true)
	}
	if ok {
		cl.inserted += txnInserts
		c.res.txns++
	}
}

// runCell takes one variant through the whole life of a durable index:
// load, checkpoint, warm up, serve the measured slices, then crash and
// recover at the end of every epoch.
func runCell(sp spec, v fpbtree.Variant, g *gen, entries []fpbtree.Entry, streams [][]op, warm time.Duration, cfg config, tr *tracer, parent int) (cellResult, error) {
	runtime.GC()
	dir, err := os.MkdirTemp(cfg.outDir, "store-")
	if err != nil {
		return cellResult{}, err
	}
	defer os.RemoveAll(dir)

	c := &cell{seed: cfg.seed, dir: dir, tr: tr, g: g, live: len(entries), fresh: g.used[0]}
	c.res.variant = v.String()
	c.opts = []fpbtree.Option{
		fpbtree.WithVariant(v), fpbtree.WithPageSize(pageSize), fpbtree.WithBufferPages(sp.pool),
		fpbtree.WithConcurrency(sp.clients), fpbtree.WithStorePath(dir), fpbtree.WithChecksums(),
	}
	if sp.noFsync {
		c.opts = append(c.opts, fpbtree.WithStoreNoFsync())
	}
	for i := 0; i < sp.clients; i++ {
		c.clients = append(c.clients, &client{id: i, cell: c})
	}
	cellSpan := tr.begin("cell."+c.res.variant, parent)

	start := time.Now()
	if c.tree, err = fpbtree.New(c.opts...); err != nil {
		return c.res, err
	}
	if err := c.tree.Bulkload(entries, sp.fill); err != nil {
		return c.res, err
	}
	if err := c.tree.Checkpoint(c.nextTag()); err != nil {
		return c.res, err
	}
	if err := c.warmUp(streams, warm); err != nil {
		return c.res, err
	}
	c.res.setup = time.Since(start)
	tr.span("setup."+c.res.variant, cellSpan, start, c.res.setup, 0)

	c.res.serve, c.res.write = map[string]uint64{}, map[string]uint64{}
	c.res.spanNs = map[string][]int64{}
	c.res.pageFile = append(c.res.pageFile, fileSize(filepath.Join(dir, "pages.db")))
	writeBase := c.tree.MetricsSnapshot()
	c.res.setupStored = writeBase.Counters["wal.bytes_written"] + writeBase.Counters["filestore.bytes_written"]
	slices := slicesFixed
	if sp.epochs > 1 {
		slices = 1
	}
	for e := 0; e < sp.epochs; e++ {
		lo, hi := e*sp.ops/sp.epochs, (e+1)*sp.ops/sp.epochs
		before := c.tree.MetricsSnapshot()
		tr.counters("serve."+c.res.variant, before, serveCounters)
		for s := 0; s < slices; s++ {
			slo, shi := lo+s*(hi-lo)/slices, lo+(s+1)*(hi-lo)/slices
			c.runSlice(streams, slo, shi, tr != nil && (e*slices+s)%2 == 0, cellSpan)
		}
		after := c.tree.MetricsSnapshot()
		tr.counters("serve."+c.res.variant, after, serveCounters)
		addDeltas(c.res.serve, serveCounters, before, after)
		for _, cl := range c.clients {
			c.live += cl.inserted - cl.deleted
			c.res.userBytes += 8 * uint64(cl.inserted)
			cl.inserted, cl.deleted = 0, 0
		}

		c.checkLive()
		if err := c.crashAndRecover(streams[0][lo:hi], writeBase, cellSpan); err != nil {
			return c.res, err
		}
		writeBase = obs.Snapshot{}
	}
	addDeltas(c.res.write, writeCounters, writeBase, c.tree.MetricsSnapshot())
	for _, cl := range c.clients {
		c.res.failed += cl.failed
		if cl.firstFail != "" {
			fmt.Fprintf(os.Stderr, "%s %s client %d: %d wrong answers, first: %s\n",
				sp.name, c.res.variant, cl.id, cl.failed, cl.firstFail)
		}
	}
	if len(c.res.checkFailures) > 0 {
		// A cell that fails an end-of-cell check vouches for none of its answers.
		c.res.failed = c.res.measuredOps()
	}
	tr.end(cellSpan)
	return c.res, c.tree.Kill()
}

// warmUp touches every leaf with a full scan, then has the clients
// replay, side by side as in the measured phase, the searches among the
// first warmPercent of their ops (the writes are left for the measured
// phase, which must see each fresh key once), over and over until d has
// passed.
func (c *cell) warmUp(streams [][]op, d time.Duration) error {
	if n, err := c.tree.RangeScan(0, ^uint32(0), nil); err != nil || n != c.live {
		return fmt.Errorf("warm-up scan = (%d, %v), want %d keys", n, err, c.live)
	}
	deadline := time.Now().Add(d)
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for i, ops := range streams {
		wg.Add(1)
		go func(i int, ops []op) {
			defer wg.Done()
			for {
				searched := false
				for _, o := range ops {
					if o.kind != opSearchHit && o.kind != opSearchMiss {
						continue
					}
					searched = true
					if _, _, err := c.tree.Search(o.key); err != nil {
						errs[i] = err
						return
					}
				}
				if !searched || !time.Now().Before(deadline) {
					return
				}
			}
		}(i, ops[:len(ops)*warmPercent/100])
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runSlice runs ops[lo:hi] of every client's stream at once and records
// the slice's duration and tail latency.
func (c *cell) runSlice(streams [][]op, lo, hi int, traced bool, parent int) {
	var wg sync.WaitGroup
	start := time.Now()
	for i, cl := range c.clients {
		cl.h.reset()
		wg.Add(1)
		go func(cl *client, ops []op) {
			defer wg.Done()
			cl.run(ops, traced)
		}(cl, streams[i][lo:hi])
	}
	wg.Wait()
	dur := time.Since(start)

	var h hist
	for _, cl := range c.clients {
		h.merge(&cl.h)
	}
	r := &c.res
	r.sliceOps = append(r.sliceOps, (hi-lo)*len(c.clients))
	r.sliceDur = append(r.sliceDur, dur)
	r.sliceTail = append(r.sliceTail, h.meanBetween(tailLo, tailHi))
	r.sliceP999 = append(r.sliceP999, h.quantile(0.999))
	r.traced = append(r.traced, traced)
	if c.tr != nil {
		id := c.tr.span(fmt.Sprintf("slice.%d", len(r.sliceOps)-1), parent, start, dur, 0)
		c.drainSamples(id)
	}
}

// drainSamples moves the clients' buffered op spans under parent.
func (c *cell) drainSamples(parent int) {
	for _, cl := range c.clients {
		for _, s := range cl.samples {
			c.tr.add(span{name: s.kind, parent: parent, start: s.start, dur: s.dur, tid: cl.id + 1})
			c.res.spanNs[s.kind] = append(c.res.spanNs[s.kind], s.dur)
		}
		cl.samples = cl.samples[:0]
	}
}

// checkLive is the end-of-epoch check on the serving tree; the last one
// also takes the tree's size for space_amp, before recovery rebuilds it.
func (c *cell) checkLive() {
	c.res.pages, c.res.live = c.tree.PageCount(), c.live
	if err := c.tree.CheckInvariants(); err != nil {
		c.checkFail("CheckInvariants: %v", err)
	}
	if n, err := c.tree.RangeScan(0, ^uint32(0), nil); err != nil || n != c.live {
		c.checkFail("full scan = (%d, %v), want %d keys", n, err, c.live)
	}
	if n := c.tree.PinnedPages(); n != 0 {
		c.checkFail("%d pages left pinned", n)
	}
}

// crashAndRecover commits one more transaction, notes how much of the
// log is on storage, issues inserts no Commit acknowledges, kills the
// tree, cuts the log back to the noted length and reopens. The recovered
// tree must report the last tag and hold every acknowledged key and no
// unacknowledged one. epochOps are the ops the epoch ran on client 0,
// whose transactions' keys are looked up one by one.
func (c *cell) crashAndRecover(epochOps []op, writeBase obs.Snapshot, parent int) error {
	cl := c.clients[0]
	traced := c.tr != nil
	acked := c.fresh
	cl.txn(acked, traced, true)
	c.live += cl.inserted
	c.res.userBytes += 8 * uint64(cl.inserted)
	cl.inserted = 0
	lastTag := c.tag

	segs, err := wal.SegmentFiles(c.dir)
	if err != nil || len(segs) == 0 {
		return fmt.Errorf("listing WAL segments in %s: %d found, %v", c.dir, len(segs), err)
	}
	newest := segs[len(segs)-1]
	unacked := acked + txnInserts
	for j := uint32(0); j < unackedInserts; j++ {
		k := c.g.fresh.key(0, unacked+j)
		if err := c.tree.Insert(k, tidOf(k, c.seed)); err != nil {
			c.checkFail("unacknowledged Insert(%d): %v", k, err)
		}
	}
	c.fresh = unacked + unackedInserts

	addDeltas(c.res.write, writeCounters, writeBase, c.tree.MetricsSnapshot())
	if err := c.tree.Kill(); err != nil {
		return err
	}
	if err := os.Truncate(newest.Path, newest.Size); err != nil {
		return err
	}
	c.tree = nil
	runtime.GC()

	t0 := time.Now()
	c.tree, err = fpbtree.New(c.opts...)
	d := time.Since(t0)
	if err != nil {
		return fmt.Errorf("reopen after crash: %w", err)
	}
	c.res.reopenNs = append(c.res.reopenNs, int64(d))
	if traced {
		cl.sample("fpbtree.reopen", t0, d, true)
	}

	if tag, ok := c.tree.RecoveredTag(); !ok || tag != lastTag {
		c.checkFail("RecoveredTag = (%d, %v), want %d", tag, ok, lastTag)
	}
	find := func(k uint32, want bool) {
		t0 := time.Now()
		tid, ok, err := c.tree.Search(k)
		if traced {
			cl.sample("fpbtree.search", t0, time.Since(t0), false)
		}
		if err != nil || ok != want || (ok && tid != tidOf(k, c.seed)) {
			c.checkFail("after recovery Search(%d) = (%d, %v, %v), want found=%v", k, tid, ok, err, want)
		}
	}
	for _, o := range epochOps {
		if o.kind == opTxn {
			for j := uint32(0); j < txnInserts; j++ {
				find(c.g.fresh.key(0, o.key+j), true)
			}
		}
	}
	for j := uint32(0); j < txnInserts; j++ {
		find(c.g.fresh.key(0, acked+j), true)
	}
	for j := uint32(0); j < unackedInserts; j++ {
		find(c.g.fresh.key(0, unacked+j), false)
	}
	t0 = time.Now()
	n, err := c.tree.RangeScan(0, ^uint32(0), nil)
	if traced {
		cl.sample("fpbtree.scan", t0, time.Since(t0), true)
	}
	if err != nil || n != c.live {
		c.checkFail("after recovery full scan = (%d, %v), want %d keys", n, err, c.live)
	}
	c.res.pageFile = append(c.res.pageFile, fileSize(filepath.Join(c.dir, "pages.db")))
	if traced {
		c.drainSamples(parent)
	}
	return nil
}

func addDeltas(into map[string]uint64, names []string, before, after obs.Snapshot) {
	for _, n := range names {
		into[n] += after.Counters[n] - before.Counters[n]
	}
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}
