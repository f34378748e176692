package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/jparray"
	"repro/internal/latch"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/sizing"
)

// Cache-first fpB+-Tree (§3.2). Nodes have one size (s cache lines,
// Table 2); pointers are full ⟨pageID, in-page offset⟩ pairs. Leaf
// nodes live in leaf-only pages; nonleaf nodes are placed aggressively
// with their parents (full in-page subtree plus bitmap-spread underflow
// filling, §3.2.1/§3.2.2); leaf parents that do not fit with their
// parent go to overflow pages.
//
// Node layout (s*64 bytes):
//
//	header 8 B: count u16 | nextPID u32 | nextOff u16  (sibling, leaves)
//	leaf:    keys 4*capL | tuple IDs 4*capL
//	nonleaf: keys 4*capN | child pageIDs 4*capN | child offsets 2*capN
//
// Page header (line 0):
//
//	off 0 kind      byte (1 = leaf page, 2 = node page, 3 = overflow)
//	off 2 nNodes    u16
//	off 4 nextFree  u16 (bump frontier, lines)
//	off 6 freeHead  u16 (free slot chain; a free slot stores the next
//	      free slot's line in its first two bytes)
//	off 8 topOff    u16 (node pages: line of the page's top-level node)
//	off 10 backPID  u32, off 14 backOff u16 (leaf pages: pointer to the
//	      parent node of the page's first leaf node, §3.2.2)
const (
	cfOffKind     = 0
	cfOffNNodes   = 2
	cfOffNextFree = 4
	cfOffFreeHead = 6
	cfOffTop      = 8
	cfOffBackPID  = 10
	cfOffBackOff  = 14

	// Leaf pages are pageLeaf (1).
	cfPageNode     = 2
	cfPageOverflow = 3

	cfNodeHdr = sizing.CacheFirstNodeHeader // 8
)

// ptr is a full cache-first node pointer: a page and a line offset.
type ptr struct {
	pid uint32
	off int
}

var nilPtr = ptr{}

func (p ptr) isNil() bool { return p.pid == 0 }

// CacheFirstConfig configures a CacheFirst tree.
type CacheFirstConfig struct {
	Pool  *buffer.Pool
	Model *memsim.Model
	// NodeBytes overrides the Table 2 node size (0 = paper selection).
	NodeBytes int
	// EnableJPA turns on external jump-pointer-array I/O prefetching
	// and in-page cache prefetching for range scans.
	EnableJPA bool
	// PrefetchWindow is how many leaf pages a scan keeps in flight;
	// 0 means 16.
	PrefetchWindow int
	// NoUnderflowFill disables the §3.2.2 bitmap-spread placement of
	// underflow children with their parent (ablation: every non-full-
	// subtree child goes to its own page or overflow).
	NoUnderflowFill bool
	// GappedLeaves keeps interleaved empty slots (gaps) in leaf nodes so
	// inserts shift only to the nearest gap instead of half the node.
	// Opt-in; changes the charge model, so simulation tables are not
	// byte-comparable with the dense default. Gapped trees cannot store
	// the maximum key value (it is the gap sentinel).
	GappedLeaves bool
	// Trace, when non-nil, receives one event per node visit.
	Trace *obs.Tracer
}

// CacheFirst is a cache-first fpB+-Tree.
type CacheFirst struct {
	pbNode

	pool *buffer.Pool

	pageSize  int
	pageLines int
	s         int // node size in lines
	capN      int
	perPage   int // node slots per page
	fanout    int // leaf entries per leaf page

	meta  idx.TreeMeta  // root ⟨pid, off⟩ and height, one atomic word
	first idx.PackedPtr // leftmost leaf node ⟨pid, off⟩

	jpaOn    bool
	pfWindow int
	jpa      *jparray.Array // leaf page IDs in key order

	pages       map[uint32]byte // page kind registry (the space map)
	overflowCur uint32          // overflow page currently being filled
	noUnderfill bool            // ablation: disable bitmap-spread filling

	tr  *obs.Tracer
	ops idx.AtomicOpStats

	batch idx.BatchScratch

	// Concurrent (serving) mode. Aggressive placement relocates nodes
	// between pages during splits (the Figure 9 maneuvers), and the set
	// of pages a split touches is discovered while it mutates — which
	// rules out strict top-down crabbing. Instead, structural writers
	// serialize on wMu but take exclusive page latches on every page they
	// touch, so they never block readers outside those pages; a write to
	// one leaf node takes neither (cachefirst_leafwrite.go); readers run
	// in parallel, latch-free or holding one shared page latch at a time,
	// validating the relocation epoch at every page transition.
	// See DESIGN.md §11.
	conc bool
	// opt enables the optimistic (version-validated, latch-free) descent;
	// requires conc and a non-race build (pool.OptSupported).
	opt     bool
	wMu     sync.Mutex    // serializes structural writers with each other
	pagesMu sync.Mutex    // guards the pages map (space map)
	jpaMu   sync.RWMutex  // guards the (not thread-safe) jump-pointer array
	reloc   atomic.Uint64 // node-relocation epoch; odd while a split runs
	// restarts counts reader operations that observed a stale relocation
	// epoch and restarted from the root — the latch.epoch_restarts
	// contention metric (atomic add on the restart path only; the
	// success path never touches it).
	restarts atomic.Uint64
}

// NewCacheFirst creates an empty tree.
func NewCacheFirst(cfg CacheFirstConfig) (*CacheFirst, error) {
	if cfg.Pool == nil || cfg.Model == nil {
		return nil, fmt.Errorf("core: Pool and Model are required")
	}
	ps := cfg.Pool.PageSize()
	nb := cfg.NodeBytes
	if nb == 0 {
		c, err := sizing.CacheFirstFor(ps, sizing.DefaultParams())
		if err != nil {
			return nil, err
		}
		nb = c.NodeBytes
	}
	if nb <= 0 || nb%lineSize != 0 {
		return nil, fmt.Errorf("core: node size %d must be a positive line multiple", nb)
	}
	s := nb / lineSize
	perPage := sizing.CacheFirstNodesPerPage(ps, s)
	if perPage < 2 {
		return nil, fmt.Errorf("core: node size %d too large for %d-byte pages", nb, ps)
	}
	pf := cfg.PrefetchWindow
	if pf <= 0 {
		pf = 16
	}
	return &CacheFirst{
		pbNode: pbNode{
			mm:     cfg.Model,
			hdr:    cfNodeHdr,
			capL:   sizing.CacheFirstLeafCap(s),
			gapped: cfg.GappedLeaves,
		},
		pool:        cfg.Pool,
		pageSize:    ps,
		pageLines:   ps / lineSize,
		s:           s,
		capN:        sizing.CacheFirstNonleafCap(s),
		perPage:     perPage,
		fanout:      perPage * sizing.CacheFirstLeafCap(s),
		jpaOn:       cfg.EnableJPA,
		pfWindow:    pf,
		jpa:         jparray.New(),
		pages:       make(map[uint32]byte),
		noUnderfill: cfg.NoUnderflowFill,
		tr:          cfg.Trace,
		conc:        cfg.Pool.Latches() != nil,
		opt:         cfg.Pool.OptSupported(),
	}, nil
}

// rootPtrHeight loads the root pointer and height as one consistent
// pair (a single atomic word).
func (t *CacheFirst) rootPtrHeight() (ptr, int) {
	pid, off, h := t.meta.Load()
	return ptr{pid, off}, h
}

// setRootHeight publishes a new root/height pair. In concurrent mode
// the new root's page content must be fully written first: a stale pair
// remains a valid entry point (the old root still reaches every leaf).
func (t *CacheFirst) setRootHeight(at ptr, height int) { t.meta.Store(at.pid, at.off, height) }

// firstLeafPtr / setFirstLeaf load and publish the leftmost-leaf
// pointer atomically.
func (t *CacheFirst) firstLeafPtr() ptr {
	pid, off := t.first.Load()
	return ptr{pid, off}
}
func (t *CacheFirst) setFirstLeaf(at ptr) { t.first.Store(at.pid, at.off) }

// getWrite pins a page the caller intends to mutate: exclusively
// latched in concurrent mode, a plain pin otherwise.
func (t *CacheFirst) getWrite(pid uint32) (buffer.Page, error) {
	if t.conc {
		return t.pool.GetX(pid)
	}
	return t.pool.Get(pid)
}

// relocBegin/relocEnd bracket a node relocation (leaf- or node-page
// split): the epoch is odd while one runs, and any change tells a
// reader that a ⟨pid, off⟩ it carried across a page transition may now
// point at a freed or reused slot.
func (t *CacheFirst) relocBegin() {
	if t.conc {
		t.reloc.Add(1)
	}
}
func (t *CacheFirst) relocEnd() {
	if t.conc {
		t.reloc.Add(1)
	}
}

// epochRestart counts one stale-epoch restart and backs off (bounded
// exponential: spin first, then yield) so the relocating writer can
// finish without the restarting reader burning a full core. b carries
// the restart loop's backoff state (one per operation).
func (t *CacheFirst) epochRestart(b *latch.Backoff) {
	t.restarts.Add(1)
	b.Pause()
}

// EpochRestarts reports how many reader operations restarted from the
// root after losing a relocation-epoch race (0 outside concurrent
// mode). Registered as latch.epoch_restarts by idx.RegisterMetrics.
func (t *CacheFirst) EpochRestarts() uint64 { return t.restarts.Load() }

// relocEpoch waits (bounded exponential backoff) until no relocation
// is in flight and returns the (even) epoch a reader should validate
// against.
func (t *CacheFirst) relocEpoch() uint64 {
	var b latch.Backoff
	for {
		e := t.reloc.Load()
		if e&1 == 0 {
			return e
		}
		b.Pause()
	}
}

// Name implements idx.Index.
func (t *CacheFirst) Name() string { return "cache-first fpB+tree" }

// Stats implements idx.Index.
func (t *CacheFirst) Stats() idx.OpStats { return t.ops.Snapshot() }

// ResetStats implements idx.Index.
func (t *CacheFirst) ResetStats() { t.ops.Reset() }

// Height implements idx.Index. Safe to call concurrently: it reads one
// atomic word.
func (t *CacheFirst) Height() int {
	_, h := t.rootPtrHeight()
	return h
}

// PageCount implements idx.Index: every page the tree has allocated
// (node, leaf, and overflow pages), mirroring Figure 16's space metric.
func (t *CacheFirst) PageCount() int {
	t.pagesMu.Lock()
	defer t.pagesMu.Unlock()
	return len(t.pages)
}

// NodeBytes reports the node size in bytes.
func (t *CacheFirst) NodeBytes() int { return t.s * lineSize }

// Fanout reports leaf entries per leaf page.
func (t *CacheFirst) Fanout() int { return t.fanout }

// --- page header accessors ---

func cfKind(d []byte) byte          { return d[cfOffKind] }
func cfNNodes(d []byte) int         { return int(le.Uint16(d[cfOffNNodes:])) }
func cfNextFree(d []byte) int       { return int(le.Uint16(d[cfOffNextFree:])) }
func cfFreeHead(d []byte) int       { return int(le.Uint16(d[cfOffFreeHead:])) }
func cfTop(d []byte) int            { return int(le.Uint16(d[cfOffTop:])) }
func cfSetKind(d []byte, v byte)    { d[cfOffKind] = v }
func cfSetNNodes(d []byte, v int)   { le.PutUint16(d[cfOffNNodes:], uint16(v)) }
func cfSetNextFree(d []byte, v int) { le.PutUint16(d[cfOffNextFree:], uint16(v)) }
func cfSetFreeHead(d []byte, v int) { le.PutUint16(d[cfOffFreeHead:], uint16(v)) }
func cfSetTop(d []byte, v int)      { le.PutUint16(d[cfOffTop:], uint16(v)) }
func cfBack(d []byte) ptr {
	return ptr{le.Uint32(d[cfOffBackPID:]), int(le.Uint16(d[cfOffBackOff:]))}
}
func cfSetBack(d []byte, p ptr) {
	le.PutUint32(d[cfOffBackPID:], p.pid)
	le.PutUint16(d[cfOffBackOff:], uint16(p.off))
}

// --- node accessors (off is the node's line number in its page) ---
// Count, keys and leaf tuple IDs are pbNode's: nonleaf nodes share the
// leaf nodes' header and key positions.

func (t *CacheFirst) cNextLeaf(d []byte, off int) ptr {
	return ptr{le.Uint32(d[nodeBase(off)+2:]), int(le.Uint16(d[nodeBase(off)+6:]))}
}
func (t *CacheFirst) cSetNextLeaf(d []byte, off int, p ptr) {
	le.PutUint32(d[nodeBase(off)+2:], p.pid)
	le.PutUint16(d[nodeBase(off)+6:], uint16(p.off))
}

// nonleaf child pointers
func (t *CacheFirst) cPidPos(off, i int) int { return nodeBase(off) + cfNodeHdr + 4*t.capN + 4*i }
func (t *CacheFirst) cOffPos(off, i int) int { return nodeBase(off) + cfNodeHdr + 8*t.capN + 2*i }
func (t *CacheFirst) cChild(d []byte, off, i int) ptr {
	return ptr{le.Uint32(d[t.cPidPos(off, i):]), int(le.Uint16(d[t.cOffPos(off, i):]))}
}
func (t *CacheFirst) cSetChild(d []byte, off, i int, p ptr) {
	le.PutUint32(d[t.cPidPos(off, i):], p.pid)
	le.PutUint16(d[t.cOffPos(off, i):], uint16(p.off))
}

// --- space management ---

// newPage allocates and registers a page of the given kind. Only
// writers allocate pages; in concurrent mode the fresh page comes back
// exclusively latched.
func (t *CacheFirst) newPage(kind byte) (buffer.Page, error) {
	var pg buffer.Page
	var err error
	if t.conc {
		pg, err = t.pool.NewPageX()
	} else {
		pg, err = t.pool.NewPage()
	}
	if err != nil {
		return buffer.Page{}, err
	}
	cfSetKind(pg.Data, kind)
	cfSetNextFree(pg.Data, 1)
	t.pagesMu.Lock()
	t.pages[pg.ID] = kind
	t.pagesMu.Unlock()
	return pg, nil
}

// allocSlot takes a node slot in the page; returns 0 if full.
func (t *CacheFirst) allocSlot(d []byte) int {
	if h := cfFreeHead(d); h != 0 {
		next := int(le.Uint16(d[nodeBase(h):]))
		cfSetFreeHead(d, next)
		t.zeroSlot(d, h)
		cfSetNNodes(d, cfNNodes(d)+1)
		return h
	}
	nf := cfNextFree(d)
	if nf+t.s > t.pageLines {
		return 0
	}
	cfSetNextFree(d, nf+t.s)
	t.zeroSlot(d, nf)
	cfSetNNodes(d, cfNNodes(d)+1)
	return nf
}

func (t *CacheFirst) zeroSlot(d []byte, off int) {
	base := nodeBase(off)
	for i := base; i < base+t.s*lineSize; i++ {
		d[i] = 0
	}
}

// freeSlot returns a slot to the page's free chain.
func (t *CacheFirst) freeSlot(d []byte, off int) {
	le.PutUint16(d[nodeBase(off):], uint16(cfFreeHead(d)))
	cfSetFreeHead(d, off)
	cfSetNNodes(d, cfNNodes(d)-1)
}

// hasSlot reports whether the page can take another node.
func (t *CacheFirst) hasSlot(d []byte) bool {
	return cfFreeHead(d) != 0 || cfNextFree(d)+t.s <= t.pageLines
}

// allocOverflowSlot finds (or creates) an overflow page with a free
// slot and allocates from it. held, if valid, is a page the caller
// already has pinned (and, in concurrent mode, exclusively latched —
// latches are not reentrant, so it must be reused, not re-pinned).
func (t *CacheFirst) allocOverflowSlot(held buffer.Page) (ptr, error) {
	if t.overflowCur != 0 {
		if t.conc && held.Valid() && held.ID == t.overflowCur {
			if off := t.allocSlot(held.Data); off != 0 {
				return ptr{t.overflowCur, off}, nil
			}
		} else {
			pg, err := t.getWrite(t.overflowCur)
			if err != nil {
				return nilPtr, err
			}
			if off := t.allocSlot(pg.Data); off != 0 {
				t.pool.Unpin(pg, true)
				return ptr{t.overflowCur, off}, nil
			}
			t.pool.Unpin(pg, false)
		}
	}
	pg, err := t.newPage(cfPageOverflow)
	if err != nil {
		return nilPtr, err
	}
	t.overflowCur = pg.ID
	off := t.allocSlot(pg.Data)
	t.pool.Unpin(pg, true)
	return ptr{pg.ID, off}, nil
}

// --- charged access helpers ---

// visitNode prefetches all lines of a node (pB+-Tree discipline). As
// for disk-first's nodes, the charges, the visit count and the trace
// are simulate-mode work.
func (t *CacheFirst) visitNode(pg buffer.Page, off int) {
	prefetchNode(t.mm, pg, off, t.s)
	if t.mm.Concurrent() {
		return
	}
	t.mm.Busy(memsim.CostNodeVisit)
	t.mm.Access(pg.Addr+uint64(nodeBase(off)), cfNodeHdr)
	t.ops.NodeVisits.Add(1)
	if t.tr != nil {
		t.tr.NodeVisit(pg.ID, off, t.mm.Now(), t.pool.Clock())
	}
}
