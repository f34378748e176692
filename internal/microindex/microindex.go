// Package microindex implements Lomet's micro-indexing organization
// (§3, Figure 4), which this paper is the first to evaluate in detail:
// a disk-optimized B+-Tree page whose first keys of every key sub-array
// are copied into a small in-page micro index. A search probes the
// micro index (a few cache lines) to pick the sub-array, then searches
// only that sub-array — good search locality. Updates, however, still
// shift the page-wide key and pointer arrays and must rebuild the
// affected micro-index suffix, which is why the paper finds its update
// performance "almost as poor as disk-optimized B+-Trees" (§4.2.2).
//
// Page layout:
//
//	header (64 B, same fields as bptree)
//	micro index: one 4 B key per sub-array, line-aligned region
//	key array:  4 B * cap
//	ptr array:  4 B * cap
//
// The sub-array size (in cache lines) comes from the Table 2 optimizer
// in internal/sizing. pB+-Tree-style prefetching is applied to the
// micro index, the chosen key sub-array, and its pointer sub-array.
package microindex

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/sizing"
)

const (
	headerSize = 64

	offType   = 0
	offLevel  = 1
	offCount  = 2
	offNext   = 4
	offPrev   = 8
	offJPNext = 12

	pageLeaf     = 1
	pageInternal = 2
)

var le = binary.LittleEndian

// Config configures a Tree.
type Config struct {
	Pool  *buffer.Pool
	Model *memsim.Model
	// SubarrayBytes overrides the Table 2 sub-array size (0 = use the
	// sizing package's selection for the page size).
	SubarrayBytes int
	// OptimisticReads lets point lookups descend latch-free, validating
	// per-page latch versions instead of holding shared latches
	// (DESIGN.md §11.6). Effective only on a latched pool in a build
	// without the race detector; ignored otherwise.
	OptimisticReads bool
	// Trace, when non-nil, receives one event per page visit.
	Trace *obs.Tracer
}

// Tree is a micro-indexing B+-Tree.
type Tree struct {
	pool *buffer.Pool
	mm   *memsim.Model

	pageSize   int
	cap        int // entries per page
	keysPerSub int
	subsMax    int // micro-index slots
	microOff   int // byte offset of the micro index (= headerSize)
	microBytes int // line-aligned micro-index region size
	keyBase    int // byte offset of the key array
	ptrBase    int // byte offset of the pointer array
	subLines   int

	// meta packs (root page, height) so concurrent descents always see
	// a consistent pair (see bptree.Tree.meta for the staleness
	// argument — page splits move keys right and leaf walks recover
	// rightward, so a stale pair is still a valid entry point).
	meta      idx.TreeMeta
	firstLeaf atomic.Uint32

	// conc is set when the pool carries a latch table: writers then
	// descend with exclusive latch crabbing (insertConc) and page
	// mutations take exclusive pins; readers couple shared latches. In
	// the default sequential mode every latch call is a no-op and the
	// code paths are identical.
	conc bool
	// opt enables the optimistic (version-validated, latch-free) read
	// descent; requires conc and a non-race build (pool.OptSupported).
	opt    bool
	growMu sync.Mutex // serializes first-root creation in conc mode

	tr  *obs.Tracer
	ops idx.AtomicOpStats

	batch idx.BatchScratch
}

// New creates an empty tree over the pool.
func New(cfg Config) (*Tree, error) {
	if cfg.Pool == nil || cfg.Model == nil {
		return nil, fmt.Errorf("microindex: Pool and Model are required")
	}
	ps := cfg.Pool.PageSize()
	sub := cfg.SubarrayBytes
	if sub == 0 {
		c, err := sizing.MicroIndexFor(ps, sizing.DefaultParams())
		if err != nil {
			return nil, err
		}
		sub = c.SubarrayBytes
	}
	if sub <= 0 || sub%memsim.LineSize != 0 {
		return nil, fmt.Errorf("microindex: sub-array size %d must be a positive multiple of %d", sub, memsim.LineSize)
	}
	cap, subs := sizing.MicroIndexFanout(ps, sub/memsim.LineSize)
	if cap <= 0 {
		return nil, fmt.Errorf("microindex: page size %d too small", ps)
	}
	microBytes := ((subs*4 + memsim.LineSize - 1) / memsim.LineSize) * memsim.LineSize
	t := &Tree{
		pool:       cfg.Pool,
		mm:         cfg.Model,
		pageSize:   ps,
		cap:        cap,
		keysPerSub: sub / 4,
		subsMax:    subs,
		microOff:   headerSize,
		microBytes: microBytes,
		keyBase:    headerSize + microBytes,
		ptrBase:    headerSize + microBytes + 4*cap,
		subLines:   sub / memsim.LineSize,
		conc:       cfg.Pool.Latches() != nil,
		opt:        cfg.OptimisticReads && cfg.Pool.OptSupported(),
		tr:         cfg.Trace,
	}
	return t, nil
}

// rootHeight loads the tree's (root page, height) pair atomically.
func (t *Tree) rootHeight() (uint32, int) {
	pid, _, h := t.meta.Load()
	return pid, h
}

// getWrite pins pid for mutation: exclusively latched in concurrent
// mode, a plain pin in sequential mode (identical pool call order
// either way, so simulated costs are unchanged).
func (t *Tree) getWrite(pid uint32) (buffer.Page, error) {
	if t.conc {
		return t.pool.GetX(pid)
	}
	return t.pool.Get(pid)
}

// newPageWrite allocates a page pinned for mutation (see getWrite).
func (t *Tree) newPageWrite() (buffer.Page, error) {
	if t.conc {
		return t.pool.NewPageX()
	}
	return t.pool.NewPage()
}

// Name implements idx.Index.
func (t *Tree) Name() string { return "micro-indexing" }

// Stats implements idx.Index.
func (t *Tree) Stats() idx.OpStats { return t.ops.Snapshot() }

// ResetStats implements idx.Index.
func (t *Tree) ResetStats() { t.ops.Reset() }

// Height implements idx.Index.
func (t *Tree) Height() int {
	_, h := t.rootHeight()
	return h
}

// Cap reports entries per page.
func (t *Tree) Cap() int { return t.cap }

// --- raw accessors ---

func pType(d []byte) byte        { return d[offType] }
func pCount(d []byte) int        { return int(le.Uint16(d[offCount:])) }
func pNext(d []byte) uint32      { return le.Uint32(d[offNext:]) }
func pPrev(d []byte) uint32      { return le.Uint32(d[offPrev:]) }
func setType(d []byte, v byte)   { d[offType] = v }
func setLevel(d []byte, v byte)  { d[offLevel] = v }
func setCount(d []byte, v int)   { le.PutUint16(d[offCount:], uint16(v)) }
func setNext(d []byte, v uint32) { le.PutUint32(d[offNext:], v) }
func setPrev(d []byte, v uint32) { le.PutUint32(d[offPrev:], v) }

func (t *Tree) keyOff(i int) int { return t.keyBase + 4*i }
func (t *Tree) ptrOff(i int) int { return t.ptrBase + 4*i }

func (t *Tree) key(d []byte, i int) idx.Key       { return le.Uint32(d[t.keyOff(i):]) }
func (t *Tree) ptr(d []byte, i int) uint32        { return le.Uint32(d[t.ptrOff(i):]) }
func (t *Tree) setKey(d []byte, i int, k idx.Key) { le.PutUint32(d[t.keyOff(i):], k) }
func (t *Tree) setPtr(d []byte, i int, v uint32)  { le.PutUint32(d[t.ptrOff(i):], v) }

func (t *Tree) microKey(d []byte, s int) idx.Key { return le.Uint32(d[t.microOff+4*s:]) }

// subCount returns the number of populated sub-arrays for n entries.
func (t *Tree) subCount(n int) int {
	return (n + t.keysPerSub - 1) / t.keysPerSub
}

// rebuildMicro rewrites micro-index entries from sub-array `from` on,
// charging the data movement.
func (t *Tree) rebuildMicro(pg buffer.Page, from int) {
	d := pg.Data
	n := pCount(d)
	subs := t.subCount(n)
	if from < 0 {
		from = 0
	}
	for s := from; s < subs; s++ {
		le.PutUint32(d[t.microOff+4*s:], t.key(d, s*t.keysPerSub))
	}
	if moved := subs - from; moved > 0 {
		t.mm.Copy(pg.Addr+uint64(t.microOff+4*from), moved*4)
	}
}

// --- charged access paths ---

// prefetchSpan prefetches size bytes of pg from byte offset off, for
// the model (a charge; frozen in serving mode) and for the machine
// (hardware prefetch instructions). The hardware half clamps to the
// page and dereferences nothing, so off and size may come from an
// unvalidated optimistic snapshot (pg.Addr is then 0).
func (t *Tree) prefetchSpan(pg buffer.Page, off, size int) {
	t.mm.Prefetch(pg.Addr+uint64(off), size)
	prefetch.Range(pg.Data, off, size)
}

func (t *Tree) touchHeader(pg buffer.Page) {
	t.mm.Access(pg.Addr, 16)
	t.mm.Busy(memsim.CostNodeVisit)
	t.ops.NodeVisits.Add(1)
	if t.tr != nil {
		t.tr.NodeVisit(pg.ID, 0, t.mm.Now(), t.pool.Clock())
	}
}

func (t *Tree) probeMicro(pg buffer.Page, s int) idx.Key {
	t.mm.Access(pg.Addr+uint64(t.microOff+4*s), 4)
	t.mm.Busy(memsim.CostCompare)
	t.mm.Other(memsim.CostComparePenalty)
	return t.microKey(pg.Data, s)
}

func (t *Tree) probeKey(pg buffer.Page, i int) idx.Key {
	t.mm.Access(pg.Addr+uint64(t.keyOff(i)), 4)
	t.mm.Busy(memsim.CostCompare)
	t.mm.Other(memsim.CostComparePenalty)
	return t.key(pg.Data, i)
}

// searchPage finds the largest slot with key <= k (lt: strictly less),
// using the micro index to confine the key probes to one sub-array.
func (t *Tree) searchPage(pg buffer.Page, k idx.Key, lt bool) (int, bool) {
	d := pg.Data
	n := pCount(d)
	if n == 0 {
		return -1, false
	}
	subs := t.subCount(n)
	// Prefetch and binary search the micro index.
	t.prefetchSpan(pg, t.microOff, ((subs*4+memsim.LineSize-1)/memsim.LineSize)*memsim.LineSize)
	lo, hi := 0, subs
	for lo < hi {
		mid := (lo + hi) / 2
		mk := t.probeMicro(pg, mid)
		if mk < k || (!lt && mk == k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s := lo - 1
	if s < 0 {
		s = 0
	}
	// Prefetch the chosen key sub-array and its pointer sub-array.
	start := s * t.keysPerSub
	end := start + t.keysPerSub
	if end > n {
		end = n
	}
	t.prefetchSpan(pg, t.keyOff(start), t.subLines*memsim.LineSize)
	t.prefetchSpan(pg, t.ptrOff(start), t.subLines*memsim.LineSize)
	// Binary search within the sub-array.
	lo, hi = start, end
	exact := false
	for lo < hi {
		mid := (lo + hi) / 2
		mk := t.probeKey(pg, mid)
		if mk < k || (!lt && mk == k) {
			lo = mid + 1
			if mk == k {
				exact = true
			}
		} else {
			hi = mid
		}
	}
	return lo - 1, exact
}

func (t *Tree) readPtr(pg buffer.Page, i int) uint32 {
	t.mm.Access(pg.Addr+uint64(t.ptrOff(i)), 4)
	return t.ptr(pg.Data, i)
}

// insertAt shifts the arrays and rebuilds the affected micro-index
// suffix — the update cost micro-indexing cannot avoid. Inserting into
// a full page reports a structural error (a damaged count field can
// make this data-dependent, so it is not left as a panic).
func (t *Tree) insertAt(pg buffer.Page, pos int, k idx.Key, p uint32) error {
	d := pg.Data
	n := pCount(d)
	if n >= t.cap {
		return fmt.Errorf("microindex: page %d overflow on insert (count %d, cap %d)", pg.ID, n, t.cap)
	}
	if moved := n - pos; moved > 0 {
		copy(d[t.keyOff(pos+1):t.keyOff(n+1)], d[t.keyOff(pos):t.keyOff(n)])
		copy(d[t.ptrOff(pos+1):t.ptrOff(n+1)], d[t.ptrOff(pos):t.ptrOff(n)])
		t.mm.Copy(pg.Addr+uint64(t.keyOff(pos)), moved*4)
		t.mm.Copy(pg.Addr+uint64(t.ptrOff(pos)), moved*4)
	}
	t.setKey(d, pos, k)
	t.setPtr(d, pos, p)
	setCount(d, n+1)
	t.mm.Access(pg.Addr+uint64(t.keyOff(pos)), 4)
	t.mm.Access(pg.Addr+uint64(t.ptrOff(pos)), 4)
	t.rebuildMicro(pg, pos/t.keysPerSub)
	return nil
}

func (t *Tree) removeAt(pg buffer.Page, pos int) {
	d := pg.Data
	n := pCount(d)
	if moved := n - pos - 1; moved > 0 {
		copy(d[t.keyOff(pos):t.keyOff(n-1)], d[t.keyOff(pos+1):t.keyOff(n)])
		copy(d[t.ptrOff(pos):t.ptrOff(n-1)], d[t.ptrOff(pos+1):t.ptrOff(n)])
		t.mm.Copy(pg.Addr+uint64(t.keyOff(pos)), moved*4)
		t.mm.Copy(pg.Addr+uint64(t.ptrOff(pos)), moved*4)
	}
	setCount(d, n-1)
	t.rebuildMicro(pg, pos/t.keysPerSub)
}
