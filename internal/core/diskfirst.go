// Package core implements the paper's contribution: fractal prefetching
// B+-Trees (fpB+-Trees) in both variants.
//
//   - DiskFirst (§3.1): a disk-optimized B+-Tree whose pages each embed a
//     small cache-optimized in-page tree. In-page nonleaf nodes are w
//     cache lines wide and address their children with 2-byte in-page
//     offsets; in-page leaf nodes are x lines wide and hold full 4-byte
//     pointers (child page IDs in nonleaf pages, tuple IDs in leaf
//     pages). (w, x) come from the Table 2 optimizer.
//
//   - CacheFirst (§3.2): a cache-optimized tree whose nodes are placed
//     into pages — leaf nodes into leaf-only pages, nonleaf nodes
//     aggressively with their parents, overflowing leaf parents into
//     overflow pages.
//
// Both maintain jump-pointer arrays at two granularities (§3.3) so that
// range scans can prefetch leaf pages (I/O) and leaf nodes (cache).
package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/pagetree"
	"repro/internal/prefetch"
	"repro/internal/sizing"
)

var le = binary.LittleEndian

// Disk-first page header (line 0):
//
//	off 0  type         byte (1 = leaf page, 2 = nonleaf page)
//	off 1  pageLevel    byte (0 at leaf pages)
//	off 2  inLevels     byte (levels of the in-page tree)
//	off 4  rootOff      uint16 (line number of the in-page root)
//	off 6  nextFreeLine uint16 (bump allocator frontier, in lines)
//	off 8  freeNonleaf  uint16 (free-chain head, line number; 0 = none)
//	off 10 freeLeaf     uint16
//	off 12 entryCount   uint32 (entries stored in this page)
//	off 16 nextPage     uint32 (right sibling at the same page level)
//	off 20 prevPage     uint32
//	off 24 jpNextPage   uint32 (jump-pointer continuation to the next
//	       page of this level; equals nextPage but maintained
//	       explicitly, as the paper stores cross-page sibling links of
//	       the in-page leaf-node chains in page headers)
//	off 28 firstLeafOff uint16 (line of the leftmost in-page leaf node)
const (
	dfOffType      = 0
	dfOffLevel     = 1
	dfOffInLevels  = 2
	dfOffRoot      = 4
	dfOffNextFree  = 6
	dfOffFreeNon   = 8
	dfOffFreeLeaf  = 10
	dfOffEntries   = 12
	dfOffNextPage  = 16
	dfOffPrevPage  = 20
	dfOffJPNext    = 24
	dfOffFirstLeaf = 28

	dfPageNonleaf = 2

	// In-page node headers (see internal/sizing).
	dfNonHdr  = sizing.DiskFirstNonleafHeader // count u16, next u16
	dfLeafHdr = sizing.DiskFirstLeafHeader    // count u16, next u16, flags u16, pad

	lineSize = memsim.LineSize
)

// DiskFirstConfig configures a DiskFirst tree.
type DiskFirstConfig struct {
	Pool  *buffer.Pool
	Model *memsim.Model
	// NonleafBytes and LeafBytes override the Table 2 in-page node
	// widths (both zero = use the paper's selection for the page size).
	NonleafBytes int
	LeafBytes    int
	// EnableJPA turns on jump-pointer-array prefetching for range
	// scans at both granularities.
	EnableJPA bool
	// PrefetchWindow is how many leaf pages an I/O-prefetching range
	// scan keeps in flight; 0 means 16.
	PrefetchWindow int
	// NoOvershootProtection disables the §2.2 end-page check, letting
	// range scans prefetch a full window past the range's end (the
	// behaviour the paper's design explicitly avoids; kept as an
	// ablation).
	NoOvershootProtection bool
	// GappedLeaves keeps interleaved empty slots (marked with
	// gapSentinel) in the in-page leaf nodes of leaf pages, so inserts
	// shift O(gap distance) keys instead of half a node. Opt-in: the
	// default dense layout keeps simulation output byte-identical.
	// Gapped trees cannot store the sentinel key value itself.
	GappedLeaves bool
	// Trace, when non-nil, receives one event per in-page node visit.
	Trace *obs.Tracer
}

// DiskFirst is a disk-first fpB+-Tree. At page granularity it is the
// disk-optimized B+-Tree (§3.1), so the page-level protocol — root and
// leftmost-leaf state, descent to a leaf page, serial and crabbing
// insert, batch descent, the range-scan walk, scavenge, durable meta —
// is the embedded pagetree.Tree; this type supplies the in-page trees
// as its Layout.
type DiskFirst struct {
	pagetree.Tree
	pbNode // the in-page leaf nodes
	// nonleaf is the in-page nonleaf nodes' layout: a shorter header and
	// capN keys, searched by the same kernel. Their children are 2-byte
	// node offsets (nChildPos), not pbNode pointers.
	nonleaf pbNode

	pool *buffer.Pool

	pageSize  int
	pageLines int

	w, x      int // in-page node widths, in lines
	capN      int // in-page nonleaf node entry capacity
	fanout    int // max entries per page (Table 2 "page fan-out")
	leafNodes int // in-page leaf nodes per page in the canonical layout

	tr  *obs.Tracer
	ops idx.AtomicOpStats
}

// NewDiskFirst creates an empty tree.
func NewDiskFirst(cfg DiskFirstConfig) (*DiskFirst, error) {
	if cfg.Pool == nil || cfg.Model == nil {
		return nil, fmt.Errorf("core: Pool and Model are required")
	}
	ps := cfg.Pool.PageSize()
	var w, x int
	if cfg.NonleafBytes == 0 && cfg.LeafBytes == 0 {
		c, err := sizing.DiskFirstFor(ps, sizing.DefaultParams())
		if err != nil {
			return nil, err
		}
		w, x = c.NonleafLines, c.LeafLines
	} else {
		if cfg.NonleafBytes%lineSize != 0 || cfg.LeafBytes%lineSize != 0 ||
			cfg.NonleafBytes <= 0 || cfg.LeafBytes <= 0 {
			return nil, fmt.Errorf("core: node widths must be positive line multiples: %d/%d",
				cfg.NonleafBytes, cfg.LeafBytes)
		}
		w, x = cfg.NonleafBytes/lineSize, cfg.LeafBytes/lineSize
	}
	levels, _, leaves := sizing.DiskFirstLayout(ps, w, x)
	if levels == 0 {
		return nil, fmt.Errorf("core: widths %d/%d lines do not fit a %d-byte page", w, x, ps)
	}
	t := &DiskFirst{
		pbNode: pbNode{
			mm:     cfg.Model,
			hdr:    dfLeafHdr,
			capL:   sizing.DiskFirstLeafCap(x),
			gapped: cfg.GappedLeaves,
		},
		nonleaf:   pbNode{mm: cfg.Model, hdr: dfNonHdr, capL: sizing.DiskFirstNonleafCap(w)},
		pool:      cfg.Pool,
		pageSize:  ps,
		pageLines: ps / lineSize,
		w:         w,
		x:         x,
		capN:      sizing.DiskFirstNonleafCap(w),
		fanout:    leaves * sizing.DiskFirstLeafCap(x),
		leafNodes: leaves,
		tr:        cfg.Trace,
	}
	t.Init(cfg.Pool, t, cfg.Model, cfg.EnableJPA, cfg.PrefetchWindow, cfg.NoOvershootProtection)
	return t, nil
}

// Name implements idx.Index.
func (t *DiskFirst) Name() string { return "disk-first fpB+tree" }

// Stats implements idx.Index.
func (t *DiskFirst) Stats() idx.OpStats { return t.ops.Snapshot() }

// ResetStats implements idx.Index.
func (t *DiskFirst) ResetStats() { t.ops.Reset() }

// Fanout reports the maximum entries per page.
func (t *DiskFirst) Fanout() int { return t.fanout }

// --- page header accessors (raw) ---

func dfType(d []byte) byte             { return d[dfOffType] }
func dfLevel(d []byte) byte            { return d[dfOffLevel] }
func dfInLevels(d []byte) int          { return int(d[dfOffInLevels]) }
func dfRoot(d []byte) int              { return int(le.Uint16(d[dfOffRoot:])) }
func dfNextFree(d []byte) int          { return int(le.Uint16(d[dfOffNextFree:])) }
func dfFreeNon(d []byte) int           { return int(le.Uint16(d[dfOffFreeNon:])) }
func dfFreeLeaf(d []byte) int          { return int(le.Uint16(d[dfOffFreeLeaf:])) }
func dfEntries(d []byte) int           { return int(le.Uint32(d[dfOffEntries:])) }
func dfNextPage(d []byte) uint32       { return le.Uint32(d[dfOffNextPage:]) }
func dfPrevPage(d []byte) uint32       { return le.Uint32(d[dfOffPrevPage:]) }
func dfJPNext(d []byte) uint32         { return le.Uint32(d[dfOffJPNext:]) }
func dfFirstLeaf(d []byte) int         { return int(le.Uint16(d[dfOffFirstLeaf:])) }
func dfSetType(d []byte, v byte)       { d[dfOffType] = v }
func dfSetLevel(d []byte, v byte)      { d[dfOffLevel] = v }
func dfSetInLevels(d []byte, v int)    { d[dfOffInLevels] = byte(v) }
func dfSetRoot(d []byte, v int)        { le.PutUint16(d[dfOffRoot:], uint16(v)) }
func dfSetNextFree(d []byte, v int)    { le.PutUint16(d[dfOffNextFree:], uint16(v)) }
func dfSetFreeNon(d []byte, v int)     { le.PutUint16(d[dfOffFreeNon:], uint16(v)) }
func dfSetFreeLeaf(d []byte, v int)    { le.PutUint16(d[dfOffFreeLeaf:], uint16(v)) }
func dfSetEntries(d []byte, v int)     { le.PutUint32(d[dfOffEntries:], uint32(v)) }
func dfSetNextPage(d []byte, v uint32) { le.PutUint32(d[dfOffNextPage:], v) }
func dfSetPrevPage(d []byte, v uint32) { le.PutUint32(d[dfOffPrevPage:], v) }
func dfSetJPNext(d []byte, v uint32)   { le.PutUint32(d[dfOffJPNext:], v) }
func dfSetFirstLeaf(d []byte, v int)   { le.PutUint16(d[dfOffFirstLeaf:], uint16(v)) }

// --- in-page node accessors ---
// Nonleaf node: [count u16][next u16][keys 4*capN][offsets 2*capN],
// whose count and keys are t.nonleaf's; leaf node: [count u16]
// [next u16][flags u16][pad u16][keys 4*capL][ptrs 4*capL], whose
// count, keys and pointers are pbNode's.

func (t *DiskFirst) nNext(d []byte, off int) int     { return int(le.Uint16(d[nodeBase(off)+2:])) }
func (t *DiskFirst) nSetNext(d []byte, off, v int)   { le.PutUint16(d[nodeBase(off)+2:], uint16(v)) }
func (t *DiskFirst) nChildPos(off, i int) int        { return nodeBase(off) + dfNonHdr + 4*t.capN + 2*i }
func (t *DiskFirst) nChild(d []byte, off, i int) int { return int(le.Uint16(d[t.nChildPos(off, i):])) }
func (t *DiskFirst) nSetChild(d []byte, off, i, v int) {
	le.PutUint16(d[t.nChildPos(off, i):], uint16(v))
}
func (t *DiskFirst) lNext(d []byte, off int) int   { return int(le.Uint16(d[nodeBase(off)+2:])) }
func (t *DiskFirst) lSetNext(d []byte, off, v int) { le.PutUint16(d[nodeBase(off)+2:], uint16(v)) }

// --- in-page space management ---

// allocNode takes a node of the given width from the free chain or the
// bump frontier; returns 0 if the page has no room.
func (t *DiskFirst) allocNode(d []byte, leafNode bool) int {
	width := t.w
	head, setHead := dfFreeNon(d), dfSetFreeNon
	if leafNode {
		width = t.x
		head, setHead = dfFreeLeaf(d), dfSetFreeLeaf
	}
	if head != 0 {
		next := int(le.Uint16(d[nodeBase(head):])) // free nodes store the chain in their first 2 bytes
		setHead(d, next)
		t.zeroNode(d, head, width)
		return head
	}
	nf := dfNextFree(d)
	if nf+width > t.pageLines {
		return 0
	}
	dfSetNextFree(d, nf+width)
	t.zeroNode(d, nf, width)
	return nf
}

func (t *DiskFirst) zeroNode(d []byte, off, width int) {
	base := nodeBase(off)
	for i := base; i < base+width*lineSize; i++ {
		d[i] = 0
	}
}

// freeNode returns a node to its width's free chain.
func (t *DiskFirst) freeNode(d []byte, off int, leafNode bool) {
	if leafNode {
		le.PutUint16(d[nodeBase(off):], uint16(dfFreeLeaf(d)))
		dfSetFreeLeaf(d, off)
	} else {
		le.PutUint16(d[nodeBase(off):], uint16(dfFreeNon(d)))
		dfSetFreeNon(d, off)
	}
}

// freeCount reports how many nodes of the given kind can still be
// allocated (free chain plus bump space).
func (t *DiskFirst) freeCount(d []byte, leafNode bool) int {
	width := t.w
	head := dfFreeNon(d)
	if leafNode {
		width = t.x
		head = dfFreeLeaf(d)
	}
	n := 0
	for off := head; off != 0; off = int(le.Uint16(d[nodeBase(off):])) {
		n++
	}
	n += (t.pageLines - dfNextFree(d)) / width
	return n
}

// --- charged access helpers ---

// prefetchNode prefetches the `lines` cache lines of pg starting at line
// off, for the model (a charge; frozen in serving mode) and for the
// machine (hardware prefetch instructions). Both variants call it
// wherever a node's position becomes known. The hardware half clamps to
// the page and dereferences nothing, so off may come from an
// unvalidated optimistic snapshot (pg.Addr is then 0 and the model
// frozen).
func prefetchNode(mm *memsim.Model, pg buffer.Page, off, lines int) {
	mm.Prefetch(pg.Addr+uint64(nodeBase(off)), lines*lineSize)
	prefetch.Range(pg.Data, nodeBase(off), lines*lineSize)
}

// visitNonleaf and visitLeaf visit the in-page node at line off: the
// node's prefetch is always issued; the model charges, the visit count
// and the trace are simulate-mode work, so in serve mode a visit stores
// nothing and the latch-free reads may make it on a snapshot.
func (t *DiskFirst) visitNonleaf(pg buffer.Page, off int) { t.visit(pg, off, t.w, dfNonHdr) }
func (t *DiskFirst) visitLeaf(pg buffer.Page, off int)    { t.visit(pg, off, t.x, dfLeafHdr) }

func (t *DiskFirst) visit(pg buffer.Page, off, lines, hdr int) {
	prefetchNode(t.mm, pg, off, lines)
	if t.mm.Concurrent() {
		return
	}
	t.mm.Busy(memsim.CostNodeVisit)
	t.mm.Access(pg.Addr+uint64(nodeBase(off)), hdr)
	t.ops.NodeVisits.Add(1)
	if t.tr != nil {
		t.tr.NodeVisit(pg.ID, off, t.mm.Now(), t.pool.Clock())
	}
}

// TouchHeader implements pagetree.Layout.
func (t *DiskFirst) TouchHeader(pg buffer.Page) {
	t.mm.Access(pg.Addr, 32)
	t.mm.Busy(memsim.CostNodeVisit)
}
