// Package harness regenerates every table and figure of the paper's
// evaluation (§4). Each experiment function returns one or more Tables
// whose rows correspond to the published plot's points; cmd/fpbench
// prints them and EXPERIMENTS.md records paper-vs-measured values.
//
// Experiments run at a configurable scale: "quick" for smoke tests,
// "default" for minutes-scale runs that preserve every trend, and
// "paper" for the published workload sizes.
package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/bptree"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/db2sim"
	"repro/internal/disksim"
	"repro/internal/fault"
	"repro/internal/idx"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/pbtree"
)

// Table is one experiment output (a figure panel or a table).
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Columns, ","))
	for _, r := range t.Rows {
		fmt.Fprintln(w, strings.Join(r, ","))
	}
}

// Params sets the workload sizes of every experiment.
type Params struct {
	Name string

	PageSizes []int // the paper sweeps 4, 8, 16, 32 KB
	MainPage  int   // the page size single-page experiments use (16 KB)

	TreeSizes []int // fig10/fig13(b) x-axis (paper: 1e5..1e7)
	Keys      int   // fig11/12/13a/14/15 tree size (paper: 3e6)
	BigKeys   int   // fig3b/fig17 tree size (paper: 1e7)
	Ops       int   // searches / inserts / deletes per run (paper: 2000)

	ScanSpan  int // fig15 entries per scan (paper: 1e6)
	ScanCount int // fig15 scans (paper: 100)

	MatureBulk    int // fig16(b)/fig17(b) initial bulkload (paper: 1e6)
	MatureInserts int // fig16(b)/fig17(b) subsequent inserts (paper: 9e6)

	Fig18Bulk    int   // fig18 bulkload (paper: 9e7)
	Fig18Inserts int   // fig18 inserts (paper: 1e7)
	Fig18Spans   []int // fig18(a) range sizes (paper: 1e2..1e7)
	Fig18BigSpan int   // fig18(b,c) range size (paper: 1e7)
	Fig18Disks   []int // fig18(b,c) disk counts (paper: 1..10)

	DB2 db2sim.Config

	Seed int64

	// Workers is the experiment-cell worker-pool width. Each cell (one
	// tree variant at one configuration point) owns its own buffer
	// pool, memory model, and workload stream, so cells are
	// embarrassingly parallel; tables are assembled in a fixed order
	// after all cells finish, so output is identical at any width.
	// 0 or 1 runs serially.
	Workers int

	// Obs, when non-nil, attaches the observability layer to every
	// environment an experiment builds: substrate and tree counters
	// register with Obs.Reg (snapshots sum across cells), and when
	// Obs.Tracer is set the buffer pools, disk arrays, and trees emit
	// trace events. Run appends a metrics table to the experiment's
	// output. The registry sources and the tracer are not synchronized,
	// so a non-nil Obs forces serial execution regardless of Workers.
	Obs *obs.Obs

	// Integrity, when set, interposes the fault/checksum storage stack
	// (a rule-less fault.Store plus fault.ChecksumStore) between every
	// buffer pool and its backing store. Both decorators pass virtual
	// time through unchanged, so the cache-experiment tables must come
	// out byte-identical to a run without Integrity — this is the
	// zero-overhead verification mode. Disk-backed experiments grow the
	// physical page by fault.TrailerSize, which shifts transfer times
	// slightly.
	Integrity bool
}

// ParamsFor returns the parameter set for a scale name: "quick",
// "default", or "paper".
func ParamsFor(scale string) (Params, error) {
	switch scale {
	case "quick":
		db2 := db2sim.DefaultConfig()
		db2.LeafPages = 1200
		return Params{
			Name:      "quick",
			PageSizes: []int{4 << 10, 16 << 10},
			MainPage:  16 << 10,
			TreeSizes: []int{30000, 100000},
			Keys:      250000, BigKeys: 250000, Ops: 400,
			ScanSpan: 30000, ScanCount: 10,
			MatureBulk: 20000, MatureInserts: 180000,
			Fig18Bulk: 150000, Fig18Inserts: 15000,
			Fig18Spans:   []int{100, 1000, 10000, 100000},
			Fig18BigSpan: 100000,
			Fig18Disks:   []int{1, 2, 4, 10},
			DB2:          db2,
			Seed:         42,
		}, nil
	case "default", "":
		return Params{
			Name:      "default",
			PageSizes: []int{4 << 10, 8 << 10, 16 << 10, 32 << 10},
			MainPage:  16 << 10,
			TreeSizes: []int{100000, 300000, 1000000, 3000000},
			Keys:      1000000, BigKeys: 3000000, Ops: 2000,
			ScanSpan: 300000, ScanCount: 30,
			MatureBulk: 100000, MatureInserts: 900000,
			Fig18Bulk: 900000, Fig18Inserts: 100000,
			Fig18Spans:   []int{100, 1000, 10000, 100000, 500000},
			Fig18BigSpan: 500000,
			Fig18Disks:   []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
			DB2:          db2sim.DefaultConfig(),
			Seed:         42,
		}, nil
	case "paper":
		db2 := db2sim.DefaultConfig()
		db2.LeafPages = 64000
		return Params{
			Name:      "paper",
			PageSizes: []int{4 << 10, 8 << 10, 16 << 10, 32 << 10},
			MainPage:  16 << 10,
			TreeSizes: []int{100000, 300000, 1000000, 3000000, 10000000},
			Keys:      3000000, BigKeys: 10000000, Ops: 2000,
			ScanSpan: 1000000, ScanCount: 100,
			MatureBulk: 1000000, MatureInserts: 9000000,
			Fig18Bulk: 9000000, Fig18Inserts: 1000000,
			Fig18Spans:   []int{100, 1000, 10000, 100000, 1000000, 10000000},
			Fig18BigSpan: 10000000,
			Fig18Disks:   []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
			DB2:          db2,
			Seed:         42,
		}, nil
	}
	return Params{}, fmt.Errorf("harness: unknown scale %q (quick, default, paper)", scale)
}

// TreeKind selects an index structure.
type TreeKind int

// The four disk-resident structures of §4.1 plus the memory-resident
// pB+-Tree of Figure 3(b).
const (
	KindDiskOptimized TreeKind = iota
	KindMicroIndex
	KindDiskFirst
	KindCacheFirst
	KindPB
)

func (k TreeKind) String() string {
	switch k {
	case KindDiskOptimized:
		return "disk-optimized B+tree"
	case KindMicroIndex:
		return "micro-indexing"
	case KindDiskFirst:
		return "disk-first fpB+tree"
	case KindCacheFirst:
		return "cache-first fpB+tree"
	case KindPB:
		return "pB+tree"
	}
	return "unknown"
}

// AllDiskKinds is the standard §4.2 comparison set.
var AllDiskKinds = []TreeKind{KindDiskOptimized, KindMicroIndex, KindDiskFirst, KindCacheFirst}

// Env bundles one experiment's substrate.
type Env struct {
	Pool  *buffer.Pool
	Model *memsim.Model
	// Array is the disk array behind Pool's store, if any.
	Array *disksim.Array
	// Faults is the fault-injection layer between the pool and its
	// backing store, if any (Params.Integrity builds one with no rules).
	Faults *fault.Store
	// Obs is the attached observability layer (nil when detached).
	Obs *obs.Obs
}

// Attach registers the environment's substrate with ob's metrics
// registry and, when ob carries a tracer, makes the buffer pool and
// disk array emit trace events. Trees built over the environment after
// Attach register their counters and emit node visits too. A nil ob is
// a no-op. Returns e for chaining.
func (e *Env) Attach(ob *obs.Obs) *Env {
	if ob == nil {
		return e
	}
	e.Obs = ob
	e.Model.RegisterMetrics(ob.Reg)
	e.Pool.RegisterMetrics(ob.Reg)
	e.Pool.AttachTracer(ob.Tracer)
	if e.Array != nil {
		e.Array.RegisterMetrics(ob.Reg)
		e.Array.AttachTracer(ob.Tracer)
	}
	if e.Faults != nil {
		e.Faults.RegisterMetrics(ob.Reg)
	}
	return e
}

// tracer is the attached tracer, or nil.
func (e *Env) tracer() *obs.Tracer {
	if e.Obs == nil {
		return nil
	}
	return e.Obs.Tracer
}

// NewCacheEnv builds a zero-I/O-latency environment big enough to hold
// a tree of `keys` entries entirely in the buffer pool (the §4.2 cache
// experiments are memory resident). With integrity set, the pool reads
// and writes through a rule-less fault store and a checksum layer; both
// pass virtual time through unchanged, so measured cycles are identical
// to the plain stack.
func NewCacheEnv(pageSize, keys int, integrity bool) *Env {
	// Leaf pages at worst ~50% utilization plus upper levels and slack.
	frames := keys/(pageSize/32) + 256
	mm := memsim.NewDefault()
	env := &Env{Model: mm}
	var store buffer.Store = buffer.NewMemStore(pageSize)
	if integrity {
		env.Faults = fault.New(buffer.NewMemStore(pageSize+fault.TrailerSize), fault.Config{})
		store = fault.NewChecksumStore(env.Faults)
	}
	env.Pool = buffer.NewPool(store, frames)
	env.Pool.AttachModel(mm)
	return env
}

// BuildTree constructs a tree of the given kind over the environment.
// If the environment has an attached Obs, the tree's counters register
// with its registry and node visits go to its tracer.
func BuildTree(kind TreeKind, env *Env, jpa bool) (idx.Index, error) {
	tr := env.tracer()
	var ix idx.Index
	var err error
	switch kind {
	case KindDiskOptimized:
		ix, err = bptree.New(bptree.Config{Pool: env.Pool, Model: env.Model, EnableJPA: jpa, Trace: tr})
	case KindMicroIndex:
		ix, err = bptree.New(bptree.Config{Pool: env.Pool, Model: env.Model, MicroIndex: true, Trace: tr})
	case KindDiskFirst:
		ix, err = core.NewDiskFirst(core.DiskFirstConfig{Pool: env.Pool, Model: env.Model, EnableJPA: jpa, Trace: tr})
	case KindCacheFirst:
		ix, err = core.NewCacheFirst(core.CacheFirstConfig{Pool: env.Pool, Model: env.Model, EnableJPA: jpa, Trace: tr})
	case KindPB:
		ix, err = pbtree.New(pbtree.Config{Model: env.Model, Space: env.Pool.Space(), Trace: tr})
	default:
		return nil, fmt.Errorf("harness: unknown tree kind %d", kind)
	}
	if err != nil {
		return nil, err
	}
	if env.Obs != nil {
		idx.RegisterMetrics(env.Obs.Reg, ix)
	}
	return ix, nil
}

// mcycles formats a cycle count as millions of cycles (= ms at 1 GHz).
func mcycles(c uint64) string {
	return fmt.Sprintf("%.2f", float64(c)/1e6)
}

// ratio formats a/b.
func ratio(a, b uint64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", float64(a)/float64(b))
}

// Registry maps experiment IDs to their runners.
type Runner func(p Params) ([]*Table, error)

var registry = map[string]Runner{}
var registryOrder []string

func register(id string, r Runner) {
	registry[id] = r
	registryOrder = append(registryOrder, id)
}

// IDs lists the registered experiment IDs in registration order.
func IDs() []string {
	out := append([]string(nil), registryOrder...)
	sort.Strings(out)
	return out
}

// Run executes one experiment by ID. With Params.Obs set, a table
// holding the metrics-registry snapshot (counters summed across every
// cell the experiment ran) is appended to the experiment's own tables.
func Run(id string, p Params) ([]*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("harness: unknown experiment %q (have %v)", id, IDs())
	}
	tables, err := r(p)
	if err != nil {
		return nil, err
	}
	if p.Obs != nil {
		tables = append(tables, metricsTable(id, p.Obs.Reg.Snapshot()))
	}
	return tables, nil
}

// metricsTable renders a registry snapshot as a two-column table.
func metricsTable(id string, snap obs.Snapshot) *Table {
	t := &Table{
		ID:      id + "-metrics",
		Title:   "metrics snapshot (all cells summed)",
		Columns: []string{"metric", "value"},
	}
	names := make([]string, 0, len(snap.Counters))
	for n := range snap.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t.AddRow(n, fmt.Sprintf("%d", snap.Counters[n]))
	}
	names = names[:0]
	for n := range snap.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := snap.Histograms[n]
		t.AddRow(n, fmt.Sprintf("count=%d mean=%.1f max=%d", h.Count, h.Mean(), h.Max))
	}
	return t
}
