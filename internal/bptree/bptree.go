// Package bptree implements the paper's two page-per-node baselines as
// one B+-Tree with two page layouts (§3).
//
// The plain layout is the traditional disk-optimized B+-Tree (Figure
// 3(a)): each page holds a sorted key array and a parallel pointer
// array (partitioned for better cache behaviour, §4.1), and searches
// binary search the page-wide array — exactly the access pattern whose
// poor spatial locality the paper diagnoses. It issues no cache
// prefetch of any kind: it is the paper's baseline and the wall-clock
// benchmark's control cell.
//
// The micro layout is Lomet's micro-indexing (Figure 4), which this
// paper is the first to evaluate in detail: the same page plus a small
// in-page micro index holding the first key of every key sub-array. A
// search probes the micro index (a few cache lines) to pick the
// sub-array, then searches only that sub-array, with pB+-Tree-style
// prefetching of the micro index and the chosen key and pointer
// sub-arrays. Updates still shift the page-wide arrays and must rebuild
// the affected micro-index suffix, which is why the paper finds its
// update performance "almost as poor as disk-optimized B+-Trees"
// (§4.2.2).
//
// The layout shows only in the in-page kernels of layout.go; the
// per-page search, scan and page operations above them exist once and
// never ask which layout they run on. The page-granular protocol — the
// descents (latched and latch-free), the point lookup's leaf walk,
// serial and crabbing insert, batch descent, the range-scan walk,
// scavenge, durable meta — is internal/pagetree, shared with the
// disk-first fpB+-Tree; this package supplies its Layout.
//
// The tree optionally maintains the page-level internal jump-pointer
// array of §2.2 (sibling links between leaf-parent pages) so that range
// scans can prefetch leaf pages — the technique the paper added to DB2;
// it applies to standard B+-Trees, not just fractal ones.
package bptree

import (
	"encoding/binary"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/pagetree"
)

// Page layout. The first line is the page header:
//
//	off 0  type     byte (1 = leaf, 2 = internal)
//	off 1  level    byte (0 at the leaves)
//	off 2  count    uint16
//	off 4  next     uint32 (right sibling, same level)
//	off 8  prev     uint32
//	off 12 jpNext   uint32 (leaf-parent jump-pointer sibling)
//
// On the plain layout keys start at byte 64 and pointers (tuple IDs on
// leaves, child page IDs on internal pages) at 64 + 4*cap. The micro
// layout puts the micro index (one 4 B key per sub-array, padded to
// whole cache lines) at byte 64 and the two arrays after it.
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
	// Pool supplies pages and I/O accounting.
	Pool *buffer.Pool
	// Model receives simulated cache traffic and computation. Required.
	Model *memsim.Model
	// MicroIndex selects the micro-indexing page layout instead of the
	// plain one.
	MicroIndex bool
	// SubarrayBytes overrides the micro layout's Table 2 sub-array size
	// (0 = the sizing package's selection for the page size).
	SubarrayBytes int
	// EnableJPA maintains leaf-parent sibling links and uses them to
	// prefetch leaf pages during range scans.
	EnableJPA bool
	// PrefetchWindow is how many leaf pages a JPA range scan keeps in
	// flight; 0 means a default of 16.
	PrefetchWindow int
	// Trace, when non-nil, receives one event per page visit.
	Trace *obs.Tracer
}

// Tree is a page-per-node B+-Tree in one of the two layouts.
type Tree struct {
	// The page-granular protocol: root and leftmost-leaf state, descent,
	// insert, batch, scavenge, durable meta.
	pagetree.Tree

	pool *buffer.Pool
	mm   *memsim.Model
	name string

	// Page geometry, fixed in New (layout.go).
	pageSize int
	cap      int // entries per page
	keyBase  int // byte offset of the key array
	ptrBase  int // byte offset of the pointer array
	// Micro layout only; subsMax == 0 is the plain layout.
	microOff   int // byte offset of the micro index
	keysPerSub int // keys per sub-array
	subsMax    int // micro-index slots
	subLines   int // cache lines per sub-array

	tr  *obs.Tracer
	ops idx.AtomicOpStats
}

// New creates an empty tree over the pool.
func New(cfg Config) (*Tree, error) {
	if cfg.Pool == nil || cfg.Model == nil {
		return nil, fmt.Errorf("bptree: Pool and Model are required")
	}
	t := &Tree{
		pool:     cfg.Pool,
		mm:       cfg.Model,
		pageSize: cfg.Pool.PageSize(),
		tr:       cfg.Trace,
	}
	if err := t.setLayout(cfg.MicroIndex, cfg.SubarrayBytes); err != nil {
		return nil, err
	}
	t.Init(cfg.Pool, t, cfg.Model, cfg.EnableJPA, cfg.PrefetchWindow, false)
	return t, nil
}

// Name implements idx.Index.
func (t *Tree) Name() string { return t.name }

// Stats implements idx.Index.
func (t *Tree) Stats() idx.OpStats { return t.ops.Snapshot() }

// ResetStats implements idx.Index.
func (t *Tree) ResetStats() { t.ops.Reset() }

// Cap reports the per-page entry capacity (the paper's page fan-out).
func (t *Tree) Cap() int { return t.cap }

// Pool returns the tree's buffer pool.
func (t *Tree) Pool() *buffer.Pool { return t.pool }

// --- raw field accessors (no simulated cache traffic) ---

func pType(d []byte) byte          { return d[offType] }
func pLevel(d []byte) byte         { return d[offLevel] }
func pCount(d []byte) int          { return int(le.Uint16(d[offCount:])) }
func pNext(d []byte) uint32        { return le.Uint32(d[offNext:]) }
func pPrev(d []byte) uint32        { return le.Uint32(d[offPrev:]) }
func pJPNext(d []byte) uint32      { return le.Uint32(d[offJPNext:]) }
func setType(d []byte, v byte)     { d[offType] = v }
func setLevel(d []byte, v byte)    { d[offLevel] = v }
func setCount(d []byte, v int)     { le.PutUint16(d[offCount:], uint16(v)) }
func setNext(d []byte, v uint32)   { le.PutUint32(d[offNext:], v) }
func setPrev(d []byte, v uint32)   { le.PutUint32(d[offPrev:], v) }
func setJPNext(d []byte, v uint32) { le.PutUint32(d[offJPNext:], v) }

func (t *Tree) keyOff(i int) int { return t.keyBase + idx.KeySize*i }
func (t *Tree) ptrOff(i int) int { return t.ptrBase + idx.PageIDSize*i }

func (t *Tree) key(d []byte, i int) idx.Key       { return le.Uint32(d[t.keyOff(i):]) }
func (t *Tree) ptr(d []byte, i int) uint32        { return le.Uint32(d[t.ptrOff(i):]) }
func (t *Tree) setKey(d []byte, i int, k idx.Key) { le.PutUint32(d[t.keyOff(i):], k) }
func (t *Tree) setPtr(d []byte, i int, v uint32)  { le.PutUint32(d[t.ptrOff(i):], v) }

// --- simulated-cache-charged access paths ---

// TouchHeader implements pagetree.Layout: the first line of the page.
// The charge, the visit count and the trace are simulate-mode work: in
// serve mode a visit stores nothing.
func (t *Tree) TouchHeader(pg buffer.Page) {
	if t.mm.Concurrent() {
		return
	}
	t.mm.Access(pg.Addr, 16)
	t.mm.Busy(memsim.CostNodeVisit)
	t.ops.NodeVisits.Add(1)
	if t.tr != nil {
		t.tr.NodeVisit(pg.ID, 0, t.mm.Now(), t.pool.Clock())
	}
}

// probe reads the key at byte offset off (a key-array or micro-index
// slot) charging one search probe.
func (t *Tree) probe(pg buffer.Page, off int) idx.Key {
	t.mm.Access(pg.Addr+uint64(off), idx.KeySize)
	t.mm.Busy(memsim.CostCompare)
	t.mm.Other(memsim.CostComparePenalty)
	return le.Uint32(pg.Data[off:])
}

// readPtr reads pointer i charging the access.
func (t *Tree) readPtr(pg buffer.Page, i int) uint32 {
	t.mm.Access(pg.Addr+uint64(t.ptrOff(i)), idx.PageIDSize)
	return t.ptr(pg.Data, i)
}

// insertAt shifts entries [pos, count) right one slot and writes the new
// entry, charging the array data movement the paper identifies as the
// dominant insertion cost (§4.2.2), then rebuilds the affected
// micro-index suffix — the update cost micro-indexing cannot avoid.
// Inserting into a full page reports a structural error (a damaged
// count field can make this data-dependent, so it is not left as a
// panic).
func (t *Tree) insertAt(pg buffer.Page, pos int, k idx.Key, p uint32) error {
	d := pg.Data
	n := pCount(d)
	if n >= t.cap {
		return fmt.Errorf("bptree: page %d overflow on insert (count %d, cap %d)", pg.ID, n, t.cap)
	}
	if moved := n - pos; moved > 0 {
		copy(d[t.keyOff(pos+1):t.keyOff(n+1)], d[t.keyOff(pos):t.keyOff(n)])
		copy(d[t.ptrOff(pos+1):t.ptrOff(n+1)], d[t.ptrOff(pos):t.ptrOff(n)])
		t.mm.Copy(pg.Addr+uint64(t.keyOff(pos)), moved*idx.KeySize)
		t.mm.Copy(pg.Addr+uint64(t.ptrOff(pos)), moved*idx.PageIDSize)
	}
	t.setKey(d, pos, k)
	t.setPtr(d, pos, p)
	setCount(d, n+1)
	t.mm.Access(pg.Addr+uint64(t.keyOff(pos)), idx.KeySize)
	t.mm.Access(pg.Addr+uint64(t.ptrOff(pos)), idx.PageIDSize)
	t.rebuildMicro(pg, pos)
	return nil
}

// removeAt shifts entries left over slot pos (lazy deletion's data
// movement).
func (t *Tree) removeAt(pg buffer.Page, pos int) {
	d := pg.Data
	n := pCount(d)
	if moved := n - pos - 1; moved > 0 {
		copy(d[t.keyOff(pos):t.keyOff(n-1)], d[t.keyOff(pos+1):t.keyOff(n)])
		copy(d[t.ptrOff(pos):t.ptrOff(n-1)], d[t.ptrOff(pos+1):t.ptrOff(n)])
		t.mm.Copy(pg.Addr+uint64(t.keyOff(pos)), moved*idx.KeySize)
		t.mm.Copy(pg.Addr+uint64(t.ptrOff(pos)), moved*idx.PageIDSize)
	}
	setCount(d, n-1)
	t.rebuildMicro(pg, pos)
}
