// Package fpbtree is the public API of this reproduction of "Fractal
// Prefetching B+-Trees: Optimizing Both Cache and Disk Performance"
// (Chen, Gibbons, Mowry, Valentin — SIGMOD 2002).
//
// A Tree is an index over 4-byte keys and tuple IDs that can be built
// in any of the paper's four structures: the two fpB+-Tree variants
// (disk-first and cache-first), the traditional disk-optimized B+-Tree,
// and the micro-indexing baseline. Trees run against a buffer pool and
// a simulated memory hierarchy/disk array, so both CPU-cache behaviour
// (simulated cycles) and I/O behaviour (buffer misses, virtual elapsed
// time) are observable — exactly the two axes the paper optimizes.
//
// Quick start:
//
//	t, _ := fpbtree.New(fpbtree.WithVariant(fpbtree.DiskFirst))
//	t.Bulkload(entries, 1.0)
//	tid, ok, _ := t.Search(42)
//	t.RangeScan(100, 200, func(k fpbtree.Key, tid fpbtree.TupleID) bool { return true })
package fpbtree

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/bptree"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/disksim"
	"repro/internal/fault"
	"repro/internal/filestore"
	"repro/internal/harness"
	"repro/internal/idx"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Key is a 4-byte index key.
type Key = idx.Key

// TupleID identifies an indexed tuple.
type TupleID = idx.TupleID

// Entry is a key with its tuple ID.
type Entry = idx.Entry

// SearchResult is the per-key outcome of a SearchBatch.
type SearchResult = idx.SearchResult

// ScavengeStats reports what a Scavenge salvaged.
type ScavengeStats = idx.ScavengeStats

// FaultConfig configures the seed-driven fault-injecting storage layer
// (see WithFaults).
type FaultConfig = fault.Config

// FaultRule schedules one fault kind (see WithFaults).
type FaultRule = fault.Rule

// FaultKind enumerates the injectable fault classes.
type FaultKind = fault.Kind

// The injectable fault classes (see internal/fault for semantics).
const (
	FaultTransientRead = fault.TransientRead
	FaultPermanentRead = fault.PermanentRead
	FaultTornWrite     = fault.TornWrite
	FaultBitFlip       = fault.BitFlip
	FaultWriteFail     = fault.WriteFail
)

// The storage error taxonomy. Operations that hit storage failures
// return errors wrapping these sentinels (classify with errors.Is); the
// wrapping *buffer.PageError carries the page ID.
var (
	ErrTransientIO   = buffer.ErrTransientIO
	ErrPermanentIO   = buffer.ErrPermanentIO
	ErrCorruptPage   = buffer.ErrCorruptPage
	ErrPoolExhausted = buffer.ErrPoolExhausted
	// ErrWALCorrupt marks a write-ahead-log record that failed framing or
	// CRC validation. At the committed prefix it is fatal; at the tail it
	// is the normal signature of a crash and recovery truncates there.
	ErrWALCorrupt = buffer.ErrWALCorrupt
	// ErrShortWrite marks a physical write that persisted fewer bytes
	// than requested (disk full, yanked volume).
	ErrShortWrite = buffer.ErrShortWrite
)

// Variant selects the index organization.
type Variant int

// The four structures evaluated in the paper (§4.1).
const (
	// DiskFirst embeds cache-optimized in-page trees in disk pages
	// (§3.1) — the paper's general recommendation.
	DiskFirst Variant = iota
	// CacheFirst places cache-optimized nodes into pages (§3.2) —
	// recommended when the index is mostly memory resident.
	CacheFirst
	// DiskOptimized is the traditional page-as-node baseline.
	DiskOptimized
	// MicroIndex is Lomet's micro-indexing organization.
	MicroIndex
)

func (v Variant) String() string {
	switch v {
	case DiskFirst:
		return "disk-first"
	case CacheFirst:
		return "cache-first"
	case DiskOptimized:
		return "disk-optimized"
	case MicroIndex:
		return "micro-indexing"
	}
	return "unknown"
}

// Options configure New.
type Options struct {
	Variant  Variant
	PageSize int // bytes; default 16 KB
	// BufferPages is the buffer pool size in frames; default 8192.
	BufferPages int
	// Disks > 0 backs the tree with a simulated disk array of that many
	// spindles; 0 keeps pages in memory with zero I/O latency.
	Disks int
	// DisableJPA turns off jump-pointer-array range-scan prefetching
	// (it is on by default for the fpB+-Tree variants).
	DisableJPA bool
	// TraceEvents > 0 enables the virtual-time event tracer, retaining
	// the last TraceEvents events in a ring buffer (see WriteTrace).
	TraceEvents int
	// Checksums adds the page-integrity layer: a CRC32-C trailer is
	// written on every page flush and verified on every pool miss, so
	// media corruption surfaces as ErrCorruptPage instead of silently
	// wrong results. Each physical page grows by one cache line; the
	// logical page size the tree sees stays PageSize.
	Checksums bool
	// Faults, when non-nil, inserts the deterministic fault-injecting
	// store below the integrity layer (and implies Checksums — injected
	// corruption must be detectable).
	Faults *FaultConfig
	// Concurrency >= 1 switches the tree into the wall-clock serving
	// mode sized for that many goroutines: the buffer pool is sharded
	// with per-page latches, readers descend with shared latch coupling,
	// writers crab with exclusive latches, and the virtual-time memory
	// simulator is frozen (its per-access charging is meaningless across
	// goroutines; see DESIGN.md §11). Operations on disjoint subtrees
	// proceed in parallel; no tree-level lock is taken on any operation
	// path. 0 keeps the default single-threaded simulation mode with
	// byte-identical outputs.
	Concurrency int
	// SlowOpThreshold is the sampled slow-op tracing threshold for the
	// concurrent serving mode: operations whose wall-clock latency
	// reaches it record a wall-clock span into the trace ring (requires
	// TraceEvents > 0 and Concurrency >= 1). 0 means the default
	// (1 ms); negative disables slow-op spans.
	SlowOpThreshold time.Duration
	// StorePath, when non-empty, backs the tree with the durable page
	// store rooted in that directory (an OS page file plus a write-ahead
	// log): opening recovers any previous state via redo replay, Commit
	// establishes durable points, and Close checkpoints. Incompatible
	// with Disks (the durable store replaces the simulated array); the
	// virtual I/O clock stays frozen at zero, as with the memory store.
	StorePath string
	// WALGroupSize and WALGroupDelay tune group commit: a commit fsync
	// leader waits until WALGroupSize commits are pending or
	// WALGroupDelay has elapsed, so concurrent committers coalesce onto
	// one fsync. Zero values fsync immediately (waiters that arrive
	// during an fsync still batch onto the next one).
	WALGroupSize  int
	WALGroupDelay time.Duration
	// CheckpointBytes bounds recovery replay: Commit escalates to a
	// checkpoint when the active WAL segment, or the page file's lag
	// behind the log (pages logged since the last checkpoint × physical
	// page size), reaches it. The second input matters because the log
	// holds only changed bytes: a small log can still stand for many
	// pages that reopen must replay and fsync. 0 means the default
	// (4 MiB); negative disables automatic checkpoints.
	CheckpointBytes int64
	// StoreNoFsync elides physical fsyncs in the durable store while
	// keeping all ordering and accounting. Crash-harness and benchmark
	// knob: the kill-and-replay protocol simulates power loss by
	// truncating the log, which fsync does not influence. Production
	// opens leave it false.
	StoreNoFsync bool
	// GappedLeaves switches the fpB+-Tree variants to the gapped leaf
	// layout (node layout v2, DESIGN.md §13): leaf in-page nodes keep
	// interleaved empty slots so an insert shifts only the keys between
	// the insertion point and the nearest gap instead of the whole
	// suffix. Opt-in because it changes the search charge model (a
	// data-parallel whole-node scan replaces the binary search), so
	// simulated cycle tables differ from the paper defaults; the key
	// 0xFFFFFFFF becomes reserved as the gap sentinel. Only DiskFirst
	// and CacheFirst support it.
	GappedLeaves bool
}

// Option mutates Options.
type Option func(*Options)

// WithVariant selects the index organization.
func WithVariant(v Variant) Option { return func(o *Options) { o.Variant = v } }

// WithPageSize sets the disk page size in bytes (4–32 KB in the paper).
func WithPageSize(bytes int) Option { return func(o *Options) { o.PageSize = bytes } }

// WithBufferPages sets the buffer pool capacity in frames.
func WithBufferPages(n int) Option { return func(o *Options) { o.BufferPages = n } }

// WithDisks backs the tree with a simulated array of n disks.
func WithDisks(n int) Option { return func(o *Options) { o.Disks = n } }

// WithoutJPA disables jump-pointer-array prefetching.
func WithoutJPA() Option { return func(o *Options) { o.DisableJPA = true } }

// WithTracing enables the virtual-time event tracer, retaining the
// last events trace records (rounded up to a power of two). Metrics
// are always collected; tracing is opt-in because each recorded event
// costs a ring-buffer store on the hot path.
func WithTracing(events int) Option { return func(o *Options) { o.TraceEvents = events } }

// WithSlowOpSpans sets the slow-op span threshold for the concurrent
// serving mode: operations whose wall-clock latency reaches d record a
// wall-clock span into the trace ring (exported to the Chrome trace as
// its own "wall clock (serving)" process). Tracing must be enabled
// with WithTracing. d == 0 restores the 1 ms default; d < 0 disables
// slow-op spans while keeping tracing on.
func WithSlowOpSpans(d time.Duration) Option {
	return func(o *Options) { o.SlowOpThreshold = d }
}

// WithChecksums enables the page-integrity layer (CRC32-C page
// trailers, verified on every pool miss).
func WithChecksums() Option { return func(o *Options) { o.Checksums = true } }

// WithFaults enables deterministic fault injection below the integrity
// layer (which it implies): reads and writes fail or corrupt pages per
// cfg's seeded schedule. Use Faults() to steer and inspect the injector
// at run time.
func WithFaults(cfg FaultConfig) Option { return func(o *Options) { o.Faults = &cfg } }

// WithStorePath backs the tree with the durable page store rooted in
// dir (created if needed): a real OS page file plus a write-ahead log
// with group commit. Opening an existing directory runs redo recovery
// and rebuilds the tree at its last durable point — see RecoveredTag.
// Pair with Commit/Checkpoint/Close; see DESIGN.md §12.
func WithStorePath(dir string) Option { return func(o *Options) { o.StorePath = dir } }

// WithGroupCommit tunes the WAL commit pipeline: an fsync leader waits
// for size pending commits or delay, whichever first, before syncing
// on behalf of every waiter.
func WithGroupCommit(size int, delay time.Duration) Option {
	return func(o *Options) { o.WALGroupSize, o.WALGroupDelay = size, delay }
}

// WithCheckpointBytes sets the recovery-replay bound at which Commit
// escalates to a checkpoint: the active WAL segment's size or the page
// file's lag (pages logged since the last checkpoint × physical page
// size), whichever reaches n first (negative disables automatic
// checkpoints; 0 restores the 4 MiB default).
func WithCheckpointBytes(n int64) Option { return func(o *Options) { o.CheckpointBytes = n } }

// WithStoreNoFsync elides physical fsyncs in the durable store (test
// and benchmark knob; ordering and accounting are unchanged).
func WithStoreNoFsync() Option { return func(o *Options) { o.StoreNoFsync = true } }

// WithGappedLeaves switches the fpB+-Tree variants to the gapped leaf
// layout (insert shifts stop at the nearest interleaved gap; see
// Options.GappedLeaves for the trade-offs). DiskFirst and CacheFirst
// only.
func WithGappedLeaves() Option { return func(o *Options) { o.GappedLeaves = true } }

// WithConcurrency enables the wall-clock serving mode sized for n
// concurrent goroutines (n >= 1). Searches, scans, inserts, deletes,
// and batched lookups from different goroutines all proceed in
// parallel under per-page latches (readers couple shared latches,
// writers crab exclusive ones; the cache-first variant additionally
// serializes its structural writers internally). Whole-tree
// maintenance — Bulkload, Scavenge, DropBufferPool, CheckInvariants,
// SpaceStats — still requires a quiescent tree; see each method. The
// cache/I-O simulators are frozen in this mode — use it for real-time
// throughput, not for the paper's virtual-time experiments.
func WithConcurrency(n int) Option { return func(o *Options) { o.Concurrency = n } }

// Tree is an fpB+-Tree (or baseline) with its substrate.
type Tree struct {
	index  idx.Index
	pool   *buffer.Pool
	model  *memsim.Model
	array  *disksim.Array
	faults *fault.Store // nil unless built WithFaults
	opts   Options

	// durable is the OS-file-backed store (nil unless built
	// WithStorePath); recovery/lastTag/ckptBytes live in durable.go.
	durable   *filestore.Durable
	recovery  *RecoveryInfo
	lastTag   uint64
	ckptBytes int64

	// mu serializes whole-tree maintenance (Bulkload, Scavenge,
	// DropBufferPool) against itself in concurrent mode. It is NOT
	// taken on any operation path: Search/Insert/Delete/scans/batches
	// synchronize purely through the per-page latch table (readers
	// couple shared latches, writers crab exclusive ones; DESIGN.md
	// §11), so maintenance additionally requires that no operations are
	// in flight — see the per-method comments.
	mu         sync.RWMutex
	concurrent bool

	// slowOpNanos is the resolved slow-op span threshold (concurrent
	// mode with tracing only); 0 disables span emission entirely, so
	// opEnd pays one load+compare when spans are off.
	slowOpNanos uint64

	ob    *obs.Obs
	hists [6]opHists // per-op latency histograms, indexed by Kind-EvOpSearch
}

// opHists holds one operation kind's latency histograms: virtual
// cycles/micros pairs in single-threaded simulation mode, wall-clock
// nanoseconds in concurrent serving mode (the virtual clocks are
// frozen there, so a virtual sample would be a meaningless zero-width
// pair). Only the mode's own histograms are registered, so snapshots
// never contain all-zero latency series.
type opHists struct{ cycles, micros, wall *obs.Histogram }

// OpStats counts the operations the index has executed (see
// Tree.OpStats).
type OpStats = idx.OpStats

// SpaceStatsReport is the per-variant page-usage report (see
// Tree.SpaceStats).
type SpaceStatsReport = idx.SpaceStats

// Stats is a point-in-time snapshot of simulation counters.
type Stats struct {
	// SimCycles is total simulated CPU time, with its Figure 3(b)
	// breakdown.
	SimCycles, BusyCycles, CacheStallCycles, OtherStallCycles uint64
	// CacheMisses counts simulated memory fetches; Prefetches counts
	// prefetch-issued line fetches.
	CacheMisses, Prefetches uint64
	// BufferGets/Hits/Misses count buffer pool activity; PageReads is
	// total physical reads (demand + prefetch).
	BufferGets, BufferHits, BufferMisses, PageReads uint64
	// IOClockMicros is the virtual I/O clock (meaningful with disks).
	IOClockMicros uint64
}

// New builds an empty tree.
func New(options ...Option) (*Tree, error) {
	o := Options{PageSize: 16 << 10, BufferPages: 8192}
	for _, fn := range options {
		fn(&o)
	}
	if o.PageSize <= 0 || o.PageSize%memsim.LineSize != 0 {
		return nil, fmt.Errorf("fpbtree: page size %d must be a positive multiple of %d", o.PageSize, memsim.LineSize)
	}
	if o.BufferPages <= 0 {
		return nil, fmt.Errorf("fpbtree: need a positive buffer pool size")
	}
	if o.StorePath != "" && o.Disks > 0 {
		return nil, fmt.Errorf("fpbtree: StorePath and Disks are mutually exclusive (the durable store replaces the simulated array)")
	}
	if o.GappedLeaves && o.Variant != DiskFirst && o.Variant != CacheFirst {
		return nil, fmt.Errorf("fpbtree: GappedLeaves requires an fpB+-Tree variant (DiskFirst or CacheFirst), not %s", o.Variant)
	}
	integrity := o.Checksums || o.Faults != nil
	physSize := o.PageSize
	if integrity {
		// The CRC trailer is carved off extra physical space so the
		// logical page (and thus every node capacity) is unchanged.
		physSize += fault.TrailerSize
	}
	var store buffer.Store
	var array *disksim.Array
	var durable *filestore.Durable
	var walRes wal.RecoveryResult
	if o.StorePath != "" {
		var err error
		durable, walRes, err = filestore.Open(filestore.Config{
			Dir: o.StorePath, PageSize: physSize,
			WAL: wal.Options{GroupSize: o.WALGroupSize, GroupDelay: o.WALGroupDelay, NoFsync: o.StoreNoFsync},
		})
		if err != nil {
			return nil, err
		}
		store = durable
	} else if o.Disks > 0 {
		var err error
		array, err = disksim.New(disksim.DefaultConfig(o.Disks, physSize))
		if err != nil {
			return nil, err
		}
		store = buffer.NewDiskStore(array)
	} else {
		store = buffer.NewMemStore(physSize)
	}
	var faults *fault.Store
	if o.Faults != nil {
		faults = fault.New(store, *o.Faults)
		store = faults
	}
	if integrity {
		if durable != nil {
			// Durable stacks verify pages from their trailer alone: the
			// stateful store's version/written maps cannot survive a
			// restart, and lost-update detection is WAL replay's job here.
			store = fault.NewStatelessChecksumStore(store)
		} else {
			store = fault.NewChecksumStore(store)
		}
	}
	mm := memsim.NewDefault()
	var pool *buffer.Pool
	if o.Concurrency >= 1 {
		// Sharded, latched pool sized ~2 shards per goroutine (rounded
		// to a power of two by the pool, capped at 64). The memory
		// simulator is frozen: per-access charging is not meaningful
		// when several goroutines interleave.
		shards := 2 * o.Concurrency
		if shards > 64 {
			shards = 64
		}
		pool = buffer.NewConcurrentPool(store, o.BufferPages, shards)
		mm.SetConcurrent(true)
	} else {
		pool = buffer.NewPool(store, o.BufferPages)
	}
	pool.AttachModel(mm)

	ob := obs.New()
	if o.TraceEvents > 0 {
		ob.Tracer = obs.NewTracer(o.TraceEvents)
	}
	mm.RegisterMetrics(ob.Reg)
	pool.RegisterMetrics(ob.Reg)
	// In concurrent serving mode the virtual clocks are frozen, so the
	// buffer/node-visit event sources would stamp every event with the
	// same meaningless timestamps — and at serving rates they wrap the
	// ring in milliseconds, evicting the slow-op wall spans the ring
	// exists for in that mode. The tracer is therefore attached only to
	// the mode's own sources: everything in simulation mode, only the
	// opEnd wall spans in serving mode.
	var substrateTracer *obs.Tracer
	if o.Concurrency < 1 {
		substrateTracer = ob.Tracer
	}
	pool.AttachTracer(substrateTracer)
	if array != nil {
		array.RegisterMetrics(ob.Reg)
		array.AttachTracer(substrateTracer)
	}
	if faults != nil {
		faults.RegisterMetrics(ob.Reg)
	}
	if durable != nil {
		durable.RegisterMetrics(ob.Reg)
	}

	jpa := !o.DisableJPA
	var index idx.Index
	var err error
	switch o.Variant {
	case DiskFirst:
		index, err = core.NewDiskFirst(core.DiskFirstConfig{
			Pool: pool, Model: mm, EnableJPA: jpa,
			Trace: substrateTracer, GappedLeaves: o.GappedLeaves,
		})
	case CacheFirst:
		index, err = core.NewCacheFirst(core.CacheFirstConfig{
			Pool: pool, Model: mm, EnableJPA: jpa,
			Trace: substrateTracer, GappedLeaves: o.GappedLeaves,
		})
	case DiskOptimized:
		index, err = bptree.New(bptree.Config{
			Pool: pool, Model: mm, EnableJPA: jpa,
			Trace: substrateTracer,
		})
	case MicroIndex:
		index, err = bptree.New(bptree.Config{Pool: pool, Model: mm, MicroIndex: true, Trace: substrateTracer})
	default:
		err = fmt.Errorf("fpbtree: unknown variant %d", o.Variant)
	}
	if err != nil {
		return nil, err
	}
	idx.RegisterMetrics(ob.Reg, index)
	t := &Tree{
		index: index, pool: pool, model: mm, array: array, faults: faults,
		durable: durable, opts: o, ob: ob, concurrent: o.Concurrency >= 1,
	}
	if t.concurrent && o.TraceEvents > 0 && o.SlowOpThreshold >= 0 {
		thr := o.SlowOpThreshold
		if thr == 0 {
			thr = time.Millisecond
		}
		t.slowOpNanos = uint64(thr)
	}
	opNames := [6]string{"search", "insert", "delete", "scan", "scan_rev", "batch"}
	for i, n := range opNames {
		if t.concurrent {
			t.hists[i] = opHists{wall: ob.Reg.Histogram("op." + n + ".wall_nanos")}
		} else {
			t.hists[i] = opHists{
				cycles: ob.Reg.Histogram("op." + n + ".cycles"),
				micros: ob.Reg.Histogram("op." + n + ".micros"),
			}
		}
	}
	if durable != nil {
		t.ckptBytes = o.CheckpointBytes
		if t.ckptBytes == 0 {
			t.ckptBytes = 4 << 20
		}
		if err := t.recoverFrom(walRes); err != nil {
			durable.Close()
			return nil, err
		}
	}
	return t, nil
}

// wallEpoch anchors the serving mode's wall clock: operation
// timestamps are monotonic nanoseconds since process start, so they
// are immune to wall-clock steps and stay small enough that the
// Chrome trace's microsecond float timestamps lose no precision.
var wallEpoch = time.Now()

func wallNow() uint64 { return uint64(time.Since(wallEpoch)) }

// opBegin snapshots the operation's start time: both virtual clocks in
// simulation mode, monotonic wall-clock nanoseconds (in c0) in
// concurrent serving mode, where the virtual clocks are frozen and
// would yield zero-width samples.
func (t *Tree) opBegin() (c0, u0 uint64) {
	if t.concurrent {
		return wallNow(), 0
	}
	return t.model.Now(), t.pool.Clock()
}

// opEnd records the operation's latency — virtual cycles and I/O
// micros in simulation mode (also emitting the trace span), wall-clock
// nanoseconds in concurrent mode, where ops at or above the slow-op
// threshold additionally record a wall-clock span (all other ops stay
// out of the ring, keeping the hot path to one atomic histogram add).
// It never allocates.
func (t *Tree) opEnd(kind obs.Kind, key uint32, c0, u0 uint64) {
	h := &t.hists[kind-obs.EvOpSearch]
	if t.concurrent {
		now := wallNow()
		if now < c0 { // defensive; the clock is monotonic
			now = c0
		}
		h.wall.Record(now - c0)
		if thr := t.slowOpNanos; thr != 0 && now-c0 >= thr {
			if tr := t.ob.Tracer; tr != nil {
				tr.OpWall(kind, key, c0, now)
			}
		}
		return
	}
	c1, u1 := t.model.Now(), t.pool.Clock()
	h.cycles.Record(c1 - c0)
	h.micros.Record(u1 - u0)
	if tr := t.ob.Tracer; tr != nil {
		tr.Op(kind, key, c0, u0, c1, u1)
	}
}

// lock/unlock guard whole-tree maintenance in concurrent mode (they
// are no-ops otherwise, keeping the single-threaded simulation paths
// branch-only and 0 allocs). Operation paths never take them.
func (t *Tree) lock() {
	if t.concurrent {
		t.mu.Lock()
	}
}

func (t *Tree) unlock() {
	if t.concurrent {
		t.mu.Unlock()
	}
}

// Variant reports the tree's organization.
func (t *Tree) Variant() Variant { return t.opts.Variant }

// Concurrency reports the goroutine count the tree was sized for
// (0 in the default single-threaded simulation mode).
func (t *Tree) Concurrency() int { return t.opts.Concurrency }

// Name reports a human-readable structure name.
func (t *Tree) Name() string { return t.index.Name() }

// Bulkload builds the tree from entries sorted by ascending key, with
// nodes filled to the given factor in (0, 1].
//
// Locking: whole-tree maintenance. In concurrent mode it excludes the
// other maintenance calls but NOT operations — the caller must ensure
// no Search/Insert/Delete/scan/batch is in flight.
func (t *Tree) Bulkload(entries []Entry, fill float64) error {
	t.lock()
	defer t.unlock()
	return t.index.Bulkload(entries, fill)
}

// Search returns the tuple ID stored under key.
//
// Locking: none at the tree level; concurrent-mode readers couple
// shared page latches down the tree.
func (t *Tree) Search(key Key) (TupleID, bool, error) {
	c0, u0 := t.opBegin()
	tid, ok, err := t.index.Search(key)
	t.opEnd(obs.EvOpSearch, key, c0, u0)
	return tid, ok, err
}

// SearchBatch looks up every key at once, returning one result per key
// in key order. Disk-resident variants sort the batch internally and
// descend level-wise, pinning each distinct page once per level and
// prefetching the next level's pages, so large batches do far fewer
// buffer-pool operations than per-key Search loops.
func (t *Tree) SearchBatch(keys []Key) ([]SearchResult, error) {
	return t.SearchBatchInto(keys, nil)
}

// SearchBatchInto is the allocation-conscious form of SearchBatch: it
// appends the results to out (reallocating only when out lacks
// capacity) and returns the extended slice.
//
// Locking: none at the tree level. Single-threaded mode descends with
// the tree's own scratch (0 allocations warm); concurrent mode draws a
// pooled scratch so simultaneous batches never share state and run
// under shared latches like any other read.
func (t *Tree) SearchBatchInto(keys []Key, out []SearchResult) ([]SearchResult, error) {
	c0, u0 := t.opBegin()
	res, err := t.index.SearchBatch(keys, out)
	t.opEnd(obs.EvOpBatch, uint32(len(keys)), c0, u0)
	return res, err
}

// Insert adds an entry.
//
// Locking: none at the tree level; a concurrent-mode writer descends
// latch-free and latches the one leaf page it changes. Only an insert
// that may split a page crabs exclusive latches down, holding ancestors
// while a child could split (cache-first serializes those internally).
func (t *Tree) Insert(key Key, tid TupleID) error {
	c0, u0 := t.opBegin()
	err := t.index.Insert(key, tid)
	t.opEnd(obs.EvOpInsert, key, c0, u0)
	return err
}

// Delete removes one entry with the given key (lazy deletion).
//
// Locking: none at the tree level; concurrent-mode deleters descend
// latch-free and take the leaf's exclusive latch (lazy deletion never
// restructures).
func (t *Tree) Delete(key Key) (bool, error) {
	c0, u0 := t.opBegin()
	ok, err := t.index.Delete(key)
	t.opEnd(obs.EvOpDelete, key, c0, u0)
	return ok, err
}

// RangeScan visits entries with startKey <= key <= endKey in order,
// prefetching leaf pages and leaf nodes through the jump-pointer arrays
// when enabled. A nil fn counts matching entries.
//
// Locking: none at the tree level; concurrent-mode scans hold shared
// latches page by page, so entries committed after the scan passes
// their position are not revisited.
func (t *Tree) RangeScan(startKey, endKey Key, fn func(Key, TupleID) bool) (int, error) {
	c0, u0 := t.opBegin()
	n, err := t.index.RangeScan(startKey, endKey, fn)
	t.opEnd(obs.EvOpScan, startKey, c0, u0)
	return n, err
}

// RangeScanReverse visits the same range in descending key order
// (reverse scans, as DB2's index structures support; §4.3.3).
//
// Locking: none at the tree level (see RangeScan).
func (t *Tree) RangeScanReverse(startKey, endKey Key, fn func(Key, TupleID) bool) (int, error) {
	c0, u0 := t.opBegin()
	n, err := t.index.RangeScanReverse(startKey, endKey, fn)
	t.opEnd(obs.EvOpScanRev, startKey, c0, u0)
	return n, err
}

// Height reports the number of page levels (node levels for the
// cache-first variant).
//
// Locking: none — a lock-free snapshot of the atomically published
// root metadata, safe at any time in concurrent mode.
func (t *Tree) Height() int { return t.index.Height() }

// PageCount reports the pages the index occupies.
//
// Locking: none — computed from atomically maintained counters; in
// concurrent mode the value is a point-in-time snapshot.
func (t *Tree) PageCount() int { return t.index.PageCount() }

// CheckInvariants validates the tree's structural invariants.
//
// Locking: whole-tree maintenance semantics without a lock — the walk
// pins pages with shared latches, so it is safe against readers, but
// in concurrent mode it must not run while writers are in flight (a
// mid-split tree can fail checks that would pass at rest).
func (t *Tree) CheckInvariants() error { return t.index.CheckInvariants() }

// Scavenge rebuilds the tree from its surviving leaf chain — the repair
// path after permanent page loss or detected corruption. Entries past
// the first unreadable or inconsistent leaf are lost (reported via
// ScavengeStats.Truncated); the old page set is abandoned without
// recycling its IDs. No pages may be pinned when it runs.
//
// Locking: whole-tree maintenance. In concurrent mode it excludes the
// other maintenance calls but NOT operations — the caller must ensure
// no operation is in flight (the no-pinned-pages precondition already
// implies that).
func (t *Tree) Scavenge() (ScavengeStats, error) {
	t.lock()
	defer t.unlock()
	return t.index.Scavenge()
}

// Faults exposes the fault injector for run-time steering (enable /
// disable, stats, reset), or nil unless the tree was built WithFaults.
func (t *Tree) Faults() *fault.Store { return t.faults }

// BufferStats returns the buffer pool's counters (retries, checksum
// failures, prefetch degradations, and the usual hit/miss accounting).
//
// Locking: none — atomic counter reads; a point-in-time snapshot in
// concurrent mode.
func (t *Tree) BufferStats() buffer.Stats { return t.pool.Stats() }

// PinnedPages reports how many buffer frames are currently pinned
// (must be zero between operations; useful for leak checks after error
// paths).
//
// Locking: none — atomic counter reads; a point-in-time snapshot in
// concurrent mode.
func (t *Tree) PinnedPages() int { return t.pool.PinnedCount() }

// Stats returns the current simulation counters.
//
// Locking: none — atomic counter reads; a point-in-time snapshot in
// concurrent mode (where the virtual clocks are frozen).
func (t *Tree) Stats() Stats {
	ms := t.model.Stats()
	ps := t.pool.Stats()
	return Stats{
		SimCycles:        ms.Cycles,
		BusyCycles:       ms.Busy,
		CacheStallCycles: ms.DataStall,
		OtherStallCycles: ms.OtherStall,
		CacheMisses:      ms.MemFetches,
		Prefetches:       ms.Prefetches,
		BufferGets:       ps.Gets,
		BufferHits:       ps.Hits,
		BufferMisses:     ps.DemandMisses,
		PageReads:        ps.DemandMisses + ps.PrefetchIssue,
		IOClockMicros:    t.pool.Clock(),
	}
}

// SpaceStats walks the tree and reports page usage detail (every
// variant supports it). The walk goes through the buffer pool, so it
// perturbs buffer counters; take a MetricsSnapshot first if you need
// unperturbed numbers.
//
// Locking: whole-tree maintenance semantics without a lock — the walk
// holds shared latches, so it is safe against readers, but in
// concurrent mode it must not run while writers are in flight.
func (t *Tree) SpaceStats() (SpaceStatsReport, error) {
	return t.index.SpaceStats()
}

// OpStats reports the operation counters accumulated since
// construction or the last ResetOpStats.
//
// Locking: none — atomic counter reads; a point-in-time snapshot in
// concurrent mode.
func (t *Tree) OpStats() OpStats { return t.index.Stats() }

// ResetOpStats zeroes the operation counters. The op.* latency
// histograms and substrate counters are unaffected.
func (t *Tree) ResetOpStats() { t.index.ResetStats() }

// Obs exposes the tree's observability bundle (metrics registry and,
// when enabled, the event tracer).
func (t *Tree) Obs() *obs.Obs { return t.ob }

// MetricsSnapshot polls every registered counter, gauge and histogram.
func (t *Tree) MetricsSnapshot() obs.Snapshot { return t.ob.Reg.Snapshot() }

// Tracing reports whether the event tracer is enabled.
func (t *Tree) Tracing() bool { return t.ob.Tracer != nil }

// WriteTrace exports the retained trace events as Chrome trace-event
// JSON (load the file in ui.perfetto.dev or chrome://tracing). It
// fails unless the tree was built WithTracing.
func (t *Tree) WriteTrace(w io.Writer) error {
	if t.ob.Tracer == nil {
		return fmt.Errorf("fpbtree: tracing not enabled; construct with WithTracing")
	}
	return t.ob.Tracer.WriteChrome(w)
}

// TraceTail returns the most recent n retained trace events (oldest
// first), or all of them if fewer are retained.
func (t *Tree) TraceTail(n int) []obs.Event {
	if t.ob.Tracer == nil {
		return nil
	}
	return t.ob.Tracer.Tail(n)
}

// ColdCaches empties the simulated CPU caches (the paper clears caches
// before each measured phase).
func (t *Tree) ColdCaches() { t.model.ColdCaches() }

// DropBufferPool flushes and empties the buffer pool (the paper clears
// it before I/O measurements).
//
// Locking: whole-tree maintenance. In concurrent mode it excludes the
// other maintenance calls but NOT operations — no operation may be in
// flight (pinned frames cannot be dropped).
func (t *Tree) DropBufferPool() error {
	t.lock()
	defer t.unlock()
	return t.pool.DropAll()
}

// ResetBufferStats zeroes the buffer pool counters.
func (t *Tree) ResetBufferStats() { t.pool.ResetStats() }

// ExperimentIDs lists the paper experiments that RunExperiment accepts
// (fig3b, fig10..fig19, table2, ablation).
func ExperimentIDs() []string { return harness.IDs() }

// RunExperiment regenerates one of the paper's tables or figures at the
// given scale ("quick", "default", or "paper") and writes the result
// tables to w.
func RunExperiment(id, scale string, w io.Writer) error {
	p, err := harness.ParamsFor(scale)
	if err != nil {
		return err
	}
	tables, err := harness.Run(id, p)
	if err != nil {
		return err
	}
	for _, tab := range tables {
		tab.Fprint(w)
	}
	return nil
}
