// Command benchmark is the repository's wall-clock benchmark: four
// workloads, each run on the four disk-resident variants through the
// public facade, with end-to-end metrics from an untraced run and
// per-layer metrics from a traced one. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type config struct {
	seed    int64
	seconds int
	trace   bool
	scale   string
	outDir  string
}

// result is what one run of one workload produced.
type result struct {
	metrics           map[string]float64
	defs              []metricDef
	attempted, failed int
}

func main() {
	var cfg config
	var workload, manifest string
	var trace, repeat int
	flag.StringVar(&workload, "workload", "", "point-fit, mixed-contend, scan-spill or txn-durable")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the tuple IDs and every op stream")
	flag.IntVar(&cfg.seconds, "seconds", refSeconds, "measured seconds aimed at on the reference host; scales the fixed op counts")
	flag.IntVar(&trace, "trace", 0, "1: traced run, prints the per-layer metrics and writes <out>/<workload>.trace.json")
	flag.StringVar(&cfg.scale, "scale", "full", "full or smoke")
	flag.StringVar(&cfg.outDir, "out", "out", "directory for the store files and the trace")
	flag.IntVar(&repeat, "repeat", 1, "run the workload this many times and report the spread of each metric")
	flag.StringVar(&manifest, "manifest", "../BENCHMARK.json", "where -repeat reads the bounds from")
	flag.Parse()
	cfg.trace = trace != 0

	failed, err := run(os.Stdout, workload, cfg, repeat, manifest)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// run prints the report and, as its last line, the result object. It
// returns how many ops failed.
func run(w io.Writer, workload string, cfg config, repeat int, manifest string) (int, error) {
	all, err := specs(cfg.scale)
	if err != nil {
		return 0, err
	}
	var sp *spec
	for i := range all {
		if all[i].name == workload {
			sp = &all[i]
		}
	}
	if sp == nil || cfg.seconds < 1 || repeat < 1 {
		return 0, fmt.Errorf("need -workload point-fit|mixed-contend|scan-spill|txn-durable, -seconds >= 1, -repeat >= 1")
	}
	if sp.clients == 0 {
		sp.clients = min(2, runtime.NumCPU())
	}
	if cfg.scale == "full" {
		sp.ops = max(sp.ops*cfg.seconds/refSeconds, slicesFixed)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return 0, err
	}
	// Collect only where the harness says so (before each cell, each
	// reopen and each twin): on two cores a background mark or scavenge
	// pass takes a client's CPU, and memory handed back to the OS between
	// phases is paid for again in page faults by whichever phase runs next.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	printStamp(w, *sp, cfg)

	var runs []result
	for i := 0; i < repeat; i++ {
		r, err := runWorkload(w, *sp, cfg)
		if err != nil {
			return 0, err
		}
		runs = append(runs, r)
	}
	final := runs[0]
	if repeat > 1 {
		if final, err = summarize(w, runs, manifest); err != nil {
			return 0, err
		}
	}
	return final.failed, printResult(w, final)
}

// runWorkload generates the inputs once and runs the four cells on them.
func runWorkload(w io.Writer, sp spec, cfg config) (result, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	root := tr.begin("workload."+sp.name, 0)

	t0 := time.Now()
	prefault(2*sp.pool*pageSize + 256<<20)
	entries := bulkEntries(sp.keys, cfg.seed)
	g := &gen{keys: uint32(sp.keys), clients: sp.clients, ops: sp.ops, seed: cfg.seed,
		fresh: newFreshKeys(uint32(sp.keys), sp.clients, cfg.seed), used: make([]uint32, sp.clients)}
	streams := make([][]op, sp.clients)
	for c := range streams {
		streams[c] = sp.gen(g, c)
	}
	keygen := time.Since(t0).Seconds()

	layer := map[string]float64{}
	if cfg.trace {
		dir, err := os.MkdirTemp(cfg.outDir, "probe-")
		if err != nil {
			return result{}, err
		}
		defer os.RemoveAll(dir)
		if err := runProbes(layer, tr, root, dir, cfg.scale == "smoke"); err != nil {
			return result{}, err
		}
		if err := runTwin(layer, tr, root, sp, entries, twinKeys(g, streams, cfg.scale == "smoke")); err != nil {
			return result{}, err
		}
	}

	var cells []cellResult
	res := result{}
	for i, v := range variants {
		warm := warmRest
		if i == 0 {
			warm = warmFirst
		}
		if cfg.scale == "smoke" {
			warm = 0 // one pass over the warm-up searches
		}
		c, err := runCell(sp, v, g, entries, streams, warm, cfg, tr, root)
		if err != nil {
			return result{}, fmt.Errorf("%s %s: %w", sp.name, v, err)
		}
		cells = append(cells, c)
		res.attempted += c.measuredOps()
		res.failed += c.failed
	}
	tr.end(root)

	e2e := endToEnd(keygen, cells)
	if cfg.trace {
		for _, c := range cells {
			perLayer(layer, c)
		}
		layer["trace.overhead_ratio"] = traceOverhead(cells[0])
		res.metrics, res.defs = layer, perLayerDefs()
		path := filepath.Join(cfg.outDir, sp.name+".trace.json")
		if err := tr.write(path); err != nil {
			return result{}, err
		}
		fmt.Fprintf(w, "trace: %d spans (ops sampled 1 in %d on every other slice), %d counter snapshots -> %s\n",
			len(tr.spans), sampleEvery, len(tr.counts), path)
	} else {
		res.metrics, res.defs = e2e, endToEndDefs()
	}
	printReport(w, sp, streams, cells, e2e, layer, res)
	return res, nil
}

// prefault grows the heap to about the size the cells will need and
// touches every page of it, so that no timed phase is the first to use
// memory fresh from the OS: in this sandbox a first touch costs more than
// the op that makes it, and only the first cell would pay.
func prefault(bytes int) {
	ballast := make([]byte, bytes)
	for i := 0; i < len(ballast); i += 4096 {
		ballast[i] = 1
	}
	sink += uint64(ballast[len(ballast)-1])
	runtime.GC() // ballast is dead: the heap keeps its pages (GC percent is off)
}

// printReport is the part of the output meant for a reader; the driver
// reads only the last line (printResult).
func printReport(w io.Writer, sp spec, streams [][]op, cells []cellResult, e2e, layer map[string]float64, res result) {
	fmt.Fprintf(w, "%-15s %12s %10s %9s %8s %8s %10s %8s %8s  checks\n",
		"cell", "ops/s", "tail us", "samples", "setup s", "reopen s", "live keys", "pages", "commits")
	for _, c := range cells {
		checks := "ok"
		if len(c.checkFailures) > 0 {
			checks = strings.Join(c.checkFailures, "; ")
		} else if c.failed > 0 {
			checks = fmt.Sprintf("%d wrong answers", c.failed)
		}
		fmt.Fprintf(w, "%-15s %12.0f %10.2f %9d %8.2f %8.3f %10d %8d %8d  %s\n", c.variant,
			e2e["ops_s."+c.variant], e2e["tail_us."+c.variant], c.measuredOps()/len(c.sliceOps),
			c.setup.Seconds(), exactQuantile(c.reopenNs, 0.5)/1e9, c.live, c.pages, len(c.commitNs), checks)
	}
	for _, c := range cells {
		fmt.Fprintf(w, "%-15s slice kops/s:", c.variant)
		for i := range c.sliceOps {
			fmt.Fprintf(w, " %.1f", float64(c.sliceOps[i])/c.sliceDur[i].Seconds()/1e3)
		}
		fmt.Fprintf(w, "\n%-15s slice tail us:", c.variant)
		for _, ns := range c.sliceTail {
			fmt.Fprintf(w, " %.1f", ns/1e3)
		}
		fmt.Fprintf(w, "\n%-15s slice p99.9 us:", c.variant)
		for _, ns := range c.sliceP999 {
			fmt.Fprintf(w, " %.1f", ns/1e3)
		}
		fmt.Fprintln(w)
	}
	for _, c := range cells {
		fmt.Fprintf(w, "%-15s measured phase: %d ops in %.2fs, %d B to the WAL, %d page-file reads, %d crash/recover cycles passed=%v\n",
			c.variant, c.measuredOps(), c.measuredTime().Seconds(), c.serve["wal.bytes_written"],
			c.serve["filestore.reads"], len(c.reopenNs), len(c.checkFailures) == 0)
	}
	fmt.Fprintf(w, "flush policy: one fsync per Commit (no group delay), auto-checkpoint at 4 MiB of WAL; fsync elided: %v\n", sp.noFsync)
	fmt.Fprintf(w, "fail_ratio %g (%d of %d ops)\n", ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	if len(layer) > 0 {
		printModelRanking(w, cells, e2e, layer)
		printLayerShares(w, sp, streams, cells, layer)
	}
	for _, d := range res.defs {
		fmt.Fprintf(w, "%-58s %16.6g %s\n", d.name, res.metrics[d.name], d.unit)
	}
}

// printModelRanking sets the model's predicted cost per search beside
// the measured rate, both as a slowdown relative to disk-first, and
// marks the variants on which the two differ by more than the ops_s
// bound.
func printModelRanking(w io.Writer, cells []cellResult, e2e, layer map[string]float64) {
	base := cells[0].variant
	fmt.Fprintf(w, "model twin vs clock (slowdown relative to %s):\n", base)
	for _, c := range cells {
		cycles := layer["memsim.cycles_per_search."+c.variant]
		model := ratio(cycles, layer["memsim.cycles_per_search."+base])
		clock := ratio(e2e["ops_s."+base], e2e["ops_s."+c.variant])
		mark := ""
		if model > 1.1*clock || clock > 1.1*model {
			mark = "  <- model and clock disagree"
		}
		fmt.Fprintf(w, "  %-15s model %.2fx (%.0f cycles/search)  clock %.2fx%s\n", c.variant, model, cycles, clock, mark)
	}
}

// printLayerShares estimates where each cell's measured time went:
// calls counted × the probe's ns per call ÷ client time. Optimistic
// descents count no node or page visit, so theirs come from the twin.
func printLayerShares(w io.Writer, sp spec, streams [][]op, cells []cellResult, layer map[string]float64) {
	searches := 0
	for _, ops := range streams {
		for _, o := range ops {
			if o.kind == opSearchHit || o.kind == opSearchMiss {
				searches++
			}
		}
	}
	fmt.Fprintln(w, "estimated share of client time per layer (counted calls x probe ns):")
	fmt.Fprintf(w, "  %-15s %8s %8s %8s %8s %8s %8s %8s %8s\n",
		"cell", "in-page", "readopt", "get", "latch", "pagefile", "crc", "wal", "obs")
	for _, c := range cells {
		total := float64(c.measuredTime()) * float64(sp.clients) // ns of client time
		visits := float64(searches) * layer["memsim.node_visits_per_search."+c.variant]
		share := func(calls, ns float64) float64 { return 100 * ratio(calls*ns, total) }
		fmt.Fprintf(w, "  %-15s %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n", c.variant,
			share(visits, layer["probe.core.inpage_search_ns"]),
			share(visits, layer["probe.buffer.readopt_ns"]),
			share(float64(c.serve["buffer.hits"]), layer["probe.buffer.get_hit_ns"])+
				share(float64(c.serve["buffer.gets"]-c.serve["buffer.hits"]), layer["probe.buffer.get_miss_file_ns"]),
			share(float64(c.serve["latch.shared_acquisitions"]+c.serve["latch.exclusive_acquisitions"]), layer["probe.latch.rlock_ns"]),
			share(float64(c.serve["filestore.reads"]), layer["probe.filestore.read_page_ns"]),
			share(float64(c.serve["filestore.reads"]), layer["probe.fault.checksum_verify_ns"]),
			share(float64(c.serve["wal.appends"]), layer["probe.wal.append_page_ns"])+
				share(float64(c.serve["wal.fsyncs"]), layer["probe.wal.commit_sync_ns"]),
			share(float64(c.measuredOps()), layer["probe.obs.hist_record_ns"]))
	}
}

// printResult writes the one-line JSON object the driver reads.
func printResult(w io.Writer, r result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]value{}}
	for _, d := range r.defs {
		out.Metrics[d.name] = value{r.metrics[d.name], d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// summarize prints, for every metric of a -repeat run, the median, the
// quartiles and whether the run furthest from the median is within the
// metric's bound; it returns the medians as the result.
func summarize(w io.Writer, runs []result, manifest string) (result, error) {
	bounds, err := readBounds(manifest)
	if err != nil {
		return result{}, err
	}
	sum := result{metrics: map[string]float64{}, defs: runs[0].defs}
	fmt.Fprintf(w, "spread over %d runs:\n%-58s %14s %14s %14s %9s %7s\n", len(runs), "metric", "q1", "median", "q3", "max dev", "bound")
	for _, d := range sum.defs {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = r.metrics[d.name]
		}
		sort.Float64s(xs)
		med := median(xs)
		dev := ratio(max(med-xs[0], xs[len(xs)-1]-med), med)
		verdict := ""
		if b, ok := bounds[d.name]; ok {
			verdict = fmt.Sprintf("%6.1f%%", 100*b)
			if dev > b {
				verdict += " OUTSIDE"
			}
		}
		fmt.Fprintf(w, "%-58s %14.6g %14.6g %14.6g %8.1f%% %s\n", d.name,
			median(xs[:len(xs)/2]), med, median(xs[(len(xs)+1)/2:]), 100*dev, verdict)
		sum.metrics[d.name] = med
	}
	for _, r := range runs {
		sum.attempted += r.attempted
		sum.failed += r.failed
	}
	return sum, nil
}

// readBounds returns the regression bound of every end-to-end metric
// BENCHMARK.json declares.
func readBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, e := range m.EndToEnd {
		bounds[e.Name] = e.Bound
	}
	return bounds, nil
}

// printStamp records what the numbers were measured on.
func printStamp(w io.Writer, sp spec, cfg config) {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "workload %s scale=%s seed=%d seconds=%d trace=%v: %d keys, fill %.1f, pool %d frames, %d clients (closed loop), %d ops/client/cell, %d epochs\n",
		sp.name, cfg.scale, cfg.seed, cfg.seconds, cfg.trace, sp.keys, sp.fill, sp.pool, sp.clients, sp.ops, sp.epochs)
	fmt.Fprintf(w, "host: cpus=%d GOMAXPROCS=%d %s kernel=%s store-fs=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), strings.TrimSpace(string(kernel)), fsType(cfg.outDir), commit)
}

// fsType names the filesystem holding dir, from the longest mount point
// in /proc/self/mountinfo that is a prefix of it.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		// "36 35 98:0 /mnt1 /mnt2 rw,noatime master:1 - ext3 /dev/root rw"
		pre, post, ok := strings.Cut(line, " - ")
		f := strings.Fields(pre)
		if !ok || len(f) < 5 {
			continue
		}
		mp := f[4]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, strings.Fields(post)[0]
		}
	}
	return fs
}
