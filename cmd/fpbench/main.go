// Command fpbench regenerates the paper's tables and figures.
//
// Usage:
//
//	fpbench [-scale quick|default|paper] [-csv] [-parallel] [-benchjson FILE]
//	        [-metrics FILE] [-trace FILE] [-cpuprofile FILE] [-memprofile FILE]
//	        [-threads N -duration D -workload readonly|mixed|scan|all -keys N]
//	        [-debug-addr HOST:PORT [-slow-op D]]
//	        [experiment ...]
//
// With no experiment arguments it runs the full suite in paper order.
// Experiment IDs: table2, fig3b, fig10, fig11, fig12, fig13, fig14,
// fig15, fig16, fig17, fig18, fig19, ablation.
//
// -parallel fans each experiment's cells over one worker per CPU; the
// tables are identical to a serial run. -benchjson FILE times every
// experiment both serially and in parallel and writes the wall-clock
// comparison as JSON (e.g. BENCH_1.json).
//
// -threads N switches to the wall-clock serving benchmark instead of
// the simulation experiments: N goroutines drive a memory-resident
// WithConcurrency tree for -duration per cell (a read-only thread
// sweep plus mixed and scan workloads), reporting real ops/sec and
// p50/p99 latency. With -benchjson the sweep is written as the
// "throughput" section (e.g. BENCH_concurrency.json). -debug-addr
// starts the operations debug server (Prometheus /metrics, JSON
// /snapshot, windowed-rate /delta, Chrome-trace /trace, /debug/pprof)
// over the live cell for the duration of the sweep; -slow-op sets the
// wall-clock threshold above which operations record spans into the
// trace ring.
//
// -metrics FILE writes the final metrics-registry snapshot (counters
// summed over every cell of every experiment run) as JSON. -trace FILE
// writes the retained virtual-time trace events as Chrome trace-event
// JSON, viewable in ui.perfetto.dev. Either flag attaches the
// observability layer, which forces the experiment cells to run
// serially. -cpuprofile and -memprofile write standard pprof profiles
// of the benchmark process itself.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/httpdbg"
)

type benchEntry struct {
	ID              string  `json:"id"`
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	Speedup         float64 `json:"speedup"`
}

type benchReport struct {
	Scale       string       `json:"scale"`
	Workers     int          `json:"workers"`
	CPUs        int          `json:"cpus"`
	GoMaxProcs  int          `json:"gomaxprocs"`
	GoVersion   string       `json:"go_version"`
	GitCommit   string       `json:"git_commit,omitempty"`
	Experiments []benchEntry `json:"experiments,omitempty"`
	// Degraded marks a throughput report recorded without real
	// parallelism (GOMAXPROCS or CPU count of 1): the thread sweep then
	// measures scheduler interleaving, not scalability, and must not be
	// compared against multi-core recordings.
	Degraded   bool                     `json:"degraded,omitempty"`
	Throughput []throughputEntry        `json:"throughput,omitempty"`
	Durability []durabilityEntry        `json:"durability,omitempty"`
	InPage     []core.InPageBenchResult `json:"inpage,omitempty"`
}

// gitCommit reports the VCS revision stamped into the binary, if any
// (absent under plain `go run` from a dirty checkout).
func gitCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			return s.Value
		}
	}
	return ""
}

func main() {
	scale := flag.String("scale", "default", "workload scale: quick, default, or paper")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	parallel := flag.Bool("parallel", false, "run experiment cells on one worker per CPU")
	benchJSON := flag.String("benchjson", "", "time each experiment serially and in parallel, write JSON to this file")
	metricsFile := flag.String("metrics", "", "write the metrics-registry snapshot as JSON to this file")
	traceFile := flag.String("trace", "", "write Chrome trace-event JSON to this file")
	traceEvents := flag.Int("trace-events", 1<<18, "trace ring capacity (with -trace)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	integrity := flag.Bool("integrity", false, "run with the checksum/fault storage stack interposed (cache tables must be byte-identical)")
	threads := flag.Int("threads", 0, "wall-clock serving benchmark: goroutine count (0 runs the simulation experiments)")
	duration := flag.Duration("duration", 2*time.Second, "per-cell measurement time (with -threads)")
	workloadName := flag.String("workload", "all", "serving workload: readonly, mixed, scan, or all (with -threads)")
	benchKeys := flag.Int("keys", 1_000_000, "keys in the serving benchmark tree (with -threads)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /snapshot, /delta, /trace and /debug/pprof on this address during the serving benchmark (with -threads)")
	slowOp := flag.Duration("slow-op", time.Millisecond, "slow-op span threshold for the serving benchmark's trace ring (with -debug-addr)")
	storeMode := flag.String("store", "sim", "serving-benchmark page store: sim (memory) or file (durable OS-file store + WAL, with -threads)")
	walBench := flag.Bool("walbench", false, "run the WAL group-commit sweep (commits/sec and fsyncs/commit vs batch size) instead of the experiments")
	inPage := flag.Bool("inpage", false, "run the in-page search microbenchmark (node widths x implementations) instead of the experiments")
	flag.Parse()

	if *inPage {
		iters := map[string]int{"quick": 200_000, "default": 2_000_000, "paper": 8_000_000}[*scale]
		if iters == 0 {
			fatal(fmt.Errorf("unknown -scale %q (want quick, default, or paper)", *scale))
		}
		fmt.Printf("# in-page search microbenchmark — %d unpredictable probes per cell, wall-clock\n", iters)
		entries, err := inPageSweep(iters)
		if err != nil {
			fatal(err)
		}
		printInPage(entries)
		if *benchJSON != "" {
			report := benchReport{
				Scale:      "inpage",
				CPUs:       runtime.NumCPU(),
				GoMaxProcs: runtime.GOMAXPROCS(0),
				GoVersion:  runtime.Version(),
				GitCommit:  gitCommit(),
				InPage:     entries,
			}
			data, err := json.MarshalIndent(report, "", "  ")
			if err != nil {
				fatal(err)
			}
			data = append(data, '\n')
			if err := os.WriteFile(*benchJSON, data, 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("# wrote %s\n", *benchJSON)
		}
		return
	}

	if *walBench {
		fmt.Printf("# WAL group-commit sweep — %v per cell, real fsyncs on a real file\n", *duration)
		entries, err := durabilitySweep(*duration)
		if err != nil {
			fatal(err)
		}
		if *benchJSON != "" {
			report := benchReport{
				Scale:      "durability",
				CPUs:       runtime.NumCPU(),
				GoMaxProcs: runtime.GOMAXPROCS(0),
				GoVersion:  runtime.Version(),
				GitCommit:  gitCommit(),
				Durability: entries,
			}
			data, err := json.MarshalIndent(report, "", "  ")
			if err != nil {
				fatal(err)
			}
			data = append(data, '\n')
			if err := os.WriteFile(*benchJSON, data, 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("# wrote %s\n", *benchJSON)
		}
		return
	}

	if *threads > 0 {
		fmt.Printf("# fpB+-Tree wall-clock serving benchmark — %d key tree, %v per cell\n", *benchKeys, *duration)
		degraded := runtime.GOMAXPROCS(0) == 1 || runtime.NumCPU() == 1
		if degraded {
			fmt.Fprintf(os.Stderr,
				"#\n# WARNING: GOMAXPROCS=%d on %d CPU(s) — the thread sweep cannot exercise\n"+
					"# real parallelism. Throughput numbers measure goroutine interleaving on a\n"+
					"# single core, NOT scalability; the report is stamped \"degraded\": true.\n"+
					"# Re-record on a multi-core runner before comparing protocols.\n#\n",
				runtime.GOMAXPROCS(0), runtime.NumCPU())
		}
		var dbg *servingDebug
		if *debugAddr != "" {
			dbg = &servingDebug{traceEvents: 1 << 14, slowOp: *slowOp}
			srv, err := httpdbg.Serve(*debugAddr, httpdbg.Config{
				Snapshot: dbg.snapshot,
				Tracer:   dbg.tracer,
			})
			if err != nil {
				fatal(err)
			}
			defer srv.Close()
			fmt.Printf("# debug server on http://%s (/metrics /snapshot /delta /trace /debug/pprof)\n", srv.Addr())
		}
		if *storeMode != "sim" && *storeMode != "file" {
			fatal(fmt.Errorf("unknown -store %q (want sim or file)", *storeMode))
		}
		entries, err := throughputSweep(*workloadName, *threads, *benchKeys, *duration, *storeMode == "file", dbg)
		if err != nil {
			fatal(err)
		}
		if *benchJSON != "" {
			report := benchReport{
				Scale:      "throughput",
				CPUs:       runtime.NumCPU(),
				GoMaxProcs: runtime.GOMAXPROCS(0),
				GoVersion:  runtime.Version(),
				GitCommit:  gitCommit(),
				Degraded:   degraded,
				Throughput: entries,
			}
			data, err := json.MarshalIndent(report, "", "  ")
			if err != nil {
				fatal(err)
			}
			data = append(data, '\n')
			if err := os.WriteFile(*benchJSON, data, 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("# wrote %s\n", *benchJSON)
		}
		return
	}

	if *list {
		for _, id := range harness.IDs() {
			fmt.Println(id)
		}
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	p, err := harness.ParamsFor(*scale)
	if err != nil {
		fatal(err)
	}
	if *parallel {
		p.Workers = harness.DefaultWorkers()
	}
	p.Integrity = *integrity

	var ob *obs.Obs
	if *metricsFile != "" || *traceFile != "" {
		if *traceFile != "" {
			ob = obs.NewTraced(*traceEvents)
		} else {
			ob = obs.New()
		}
		p.Obs = ob
		if *parallel {
			fmt.Fprintln(os.Stderr, "fpbench: -metrics/-trace force serial cells; ignoring -parallel")
		}
	}

	ids := flag.Args()
	if len(ids) == 0 {
		ids = []string{"table2", "fig3b", "fig10", "fig11", "fig12", "fig13",
			"fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "ablation"}
	}
	fmt.Printf("# fpB+-Tree reproduction — scale=%s\n\n", p.Name)

	if *benchJSON != "" {
		report := benchReport{
			Scale:      p.Name,
			Workers:    harness.DefaultWorkers(),
			CPUs:       runtime.NumCPU(),
			GoMaxProcs: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			GitCommit:  gitCommit(),
		}
		for _, id := range ids {
			serial := p
			serial.Workers = 1
			start := time.Now()
			tables, err := harness.Run(id, serial)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", id, err))
			}
			serialDur := time.Since(start)

			par := p
			par.Workers = harness.DefaultWorkers()
			start = time.Now()
			if _, err := harness.Run(id, par); err != nil {
				fatal(fmt.Errorf("%s (parallel): %w", id, err))
			}
			parallelDur := time.Since(start)

			printTables(tables, *csv)
			fmt.Printf("# %s: serial %v, parallel %v (%d workers)\n\n",
				id, serialDur.Round(time.Millisecond), parallelDur.Round(time.Millisecond), par.Workers)
			report.Experiments = append(report.Experiments, benchEntry{
				ID:              id,
				SerialSeconds:   serialDur.Seconds(),
				ParallelSeconds: parallelDur.Seconds(),
				Speedup:         serialDur.Seconds() / parallelDur.Seconds(),
			})
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatal(err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*benchJSON, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("# wrote %s\n", *benchJSON)
	} else {
		for _, id := range ids {
			start := time.Now()
			tables, err := harness.Run(id, p)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", id, err))
			}
			printTables(tables, *csv)
			fmt.Printf("# %s completed in %v\n\n", id, time.Since(start).Round(time.Millisecond))
		}
	}

	if ob != nil {
		if *metricsFile != "" {
			f, err := os.Create(*metricsFile)
			if err != nil {
				fatal(err)
			}
			if err := ob.Reg.Snapshot().WriteJSON(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("# wrote %s\n", *metricsFile)
		}
		if *traceFile != "" {
			f, err := os.Create(*traceFile)
			if err != nil {
				fatal(err)
			}
			if err := ob.Tracer.WriteChrome(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("# wrote %s\n", *traceFile)
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

func printTables(tables []*harness.Table, csv bool) {
	for _, t := range tables {
		if csv {
			fmt.Printf("# %s: %s\n", t.ID, t.Title)
			t.CSV(os.Stdout)
			fmt.Println()
		} else {
			t.Fprint(os.Stdout)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fpbench:", err)
	os.Exit(1)
}
