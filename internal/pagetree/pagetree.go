// Package pagetree is the page-granular B+-Tree protocol shared by the
// trees whose unit of structure is the disk page: the page-per-node
// B+-Tree of internal/bptree (plain and micro-indexing layouts) and the
// disk-first fpB+-Tree of internal/core, which the paper defines as
// that same tree with each page's sorted array replaced by a small
// in-page tree (§3.1).
//
// Everything here works on whole pages: the root and leftmost-leaf
// state, the descent to a leaf page (latched and latch-free), the
// point lookup's leaf walk (lookup.go), the serial insert with its root grow, the leaf-only write and the
// exclusive latch crabbing behind it, the level-wise batch descent, the
// range scan in both directions with its jump-pointer prefetch window
// (scan.go), the level walk, scavenge and the durable meta. What a page
// holds, how it is searched, scanned and split is the Layout's business
// (17 methods); this package never looks inside a page and never asks
// which layout it serves.
package pagetree

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/memsim"
)

// Layout is what distinguishes one page-granular tree from another. A
// pointer p is a tuple ID in a leaf page and a child page ID above.
// Methods taking a buffer.Page charge the memory model and may pin
// further pages; methods taking the raw bytes are uncharged reads. The
// latch-free reads hand ChildFor, SeekLeaf and TupleAt an unvalidated
// page snapshot as a buffer.Page with a zero Addr: they run only in
// serve mode, where the charges are no-ops and a visit stores nothing,
// and a torn snapshot can at worst fail a bounds check, which the
// caller recovers as a retry.
type Layout interface {
	// TouchHeader charges the visit of a freshly pinned page.
	TouchHeader(pg buffer.Page)
	// ChildFor returns the child of nonleaf page pg to follow for k,
	// clamping below the leftmost separator, which below reports. lt
	// descends with strictly-less comparisons (lookups and forward
	// scans, so duplicates equal to a separator are not skipped).
	ChildFor(pg buffer.Page, k idx.Key, lt bool) (child uint32, below bool)
	// ChildForInsert is ChildFor for an insert: when k falls below the
	// page's minimum separator it lowers that separator to k, so that
	// separators remain true lower bounds, and reports the page dirty.
	ChildForInsert(pg buffer.Page, k idx.Key) (child uint32, lowered bool)
	// Safe reports whether one more insert into the page can never
	// split it: crabbing releases every ancestor above a safe page.
	Safe(d []byte) bool
	// InsertOnePage inserts (k, p) into the pinned page without
	// splitting it; ok=false means the page must split.
	InsertOnePage(pg buffer.Page, k idx.Key, p uint32) (ok bool, err error)
	// SplitPage moves the upper half of pg to a new right sibling
	// (allocated with Tree.NewPageWrite, linked, and already unpinned on
	// return) and returns the separator and the new page's ID.
	SplitPage(pg buffer.Page) (sep idx.Key, newPID uint32, err error)
	// InitLeafRoot formats a zeroed page as the empty leaf root.
	InitLeafRoot(d []byte) error
	// InitRoot formats a zeroed page as a nonleaf root at the given
	// level over two children.
	InitRoot(d []byte, level int, leftMin idx.Key, left uint32, sep idx.Key, right uint32) error
	// MinKey reads the page's smallest key (its separator one level up).
	MinKey(d []byte) idx.Key
	// SeekLeaf returns the position of the first live entry >= k in
	// leaf page pg and its key, charging the search, or pos -1 when
	// every entry is < k. seek selects the in-page search — on a point
	// walk's first page — over a walk from the page's first entry. Every
	// loop is bounded by the page, so it returns on a torn snapshot.
	SeekLeaf(pg buffer.Page, k idx.Key, seek bool) (pos int, key idx.Key)
	// TupleAt reads the tuple ID at a position SeekLeaf returned,
	// charging the access.
	TupleAt(pg buffer.Page, pos int) idx.TupleID
	// SalvageLeaf appends the entries of a leaf page to dst in key
	// order; ok=false means the bytes are not a plausible leaf page.
	SalvageLeaf(d []byte, dst []idx.Entry) (out []idx.Entry, ok bool)
	// Next reads the page's right sibling at its level (0 = none). On a
	// nonleaf page it is also the jump-pointer link to the level's next
	// chunk.
	Next(d []byte) uint32
	// Prev reads the page's left sibling at its level (0 = none). A
	// split fixes its right neighbour's Prev last, under that page's own
	// latch, so a concurrent reader may see the page split from.
	Prev(d []byte) uint32
	// ScanLeaf delivers the entries of the pinned leaf page pg whose
	// keys lie in [lo, hi] to fn (nil: only counted), ascending or, with
	// reverse, descending, and returns how many. done reports that the
	// scan is over: fn returned false, or a key beyond the far bound was
	// met. seek positions with the in-page search — on the scan's first
	// page — instead of starting at the page's end.
	ScanLeaf(pg buffer.Page, lo, hi idx.Key, reverse, seek bool, fn func(idx.Key, idx.TupleID) bool) (n int, done bool)
	// JumpPointers appends to dst the leaf page IDs the pinned
	// leaf-parent page pg holds, in key order, starting at first (0:
	// at the page's first child) and stopping after last, which done
	// reports; the reads are charged as jump-pointer array traffic.
	// extra > 0 is the §2.2 overshoot ablation: up to that many IDs
	// stored contiguously after last are appended too.
	JumpPointers(pg buffer.Page, first, last uint32, extra int, dst []uint32) (out []uint32, done bool)
	// FirstChild reads a nonleaf page's leftmost child (0 = empty page).
	FirstChild(d []byte) uint32
}

// Tree is the protocol state of one tree. The layout's tree embeds it
// and calls Init before first use.
type Tree struct {
	pool *buffer.Pool
	lay  Layout
	mm   *memsim.Model

	// meta packs (root page, height) so concurrent descents always see
	// a consistent pair; a stale pair is still a valid entry point
	// because the old root keeps routing its level (splits move keys
	// right, and the leaf walks recover rightward).
	meta      idx.TreeMeta
	firstLeaf atomic.Uint32

	// conc is set when the pool carries a latch table: writers then
	// descend with exclusive latch crabbing (crab.go), descents couple
	// shared latches and page mutations take exclusive pins. In the
	// default sequential mode every latch call is a no-op and the pool
	// call order is the one the simulated I/O counts depend on.
	conc   bool
	growMu sync.Mutex // serializes first-root creation

	// Range scans (scan.go): jump-pointer prefetching on or off, how
	// many leaf pages it keeps in flight, and the ablation that lets it
	// run past the range's end page.
	jpa       bool
	pfWindow  int
	overshoot bool

	batch idx.BatchScratch
}

// Init binds the protocol to its pool, its layout and the model, which
// is only ever asked whether the tree is serving (see Opt), and fixes
// how range scans prefetch: jpa turns the jump-pointer array on, window
// is the number of leaf pages kept in flight (<= 0: 16), overshoot the
// ablation that prefetches a window past the end page.
func (t *Tree) Init(pool *buffer.Pool, lay Layout, mm *memsim.Model, jpa bool, window int, overshoot bool) {
	t.pool = pool
	t.lay = lay
	t.mm = mm
	t.conc = pool.Latches() != nil
	if window <= 0 {
		window = 16
	}
	t.jpa, t.pfWindow, t.overshoot = jpa, window, overshoot
}

// JPA reports whether range scans prefetch through the jump-pointer
// array; a layout with cache-granularity prefetch keys it on this too.
func (t *Tree) JPA() bool { return t.jpa }

// Conc reports whether the tree runs under the per-page latch protocol.
func (t *Tree) Conc() bool { return t.conc }

// RootHeight loads the tree's (root page, height) pair atomically.
func (t *Tree) RootHeight() (uint32, int) {
	pid, _, h := t.meta.Load()
	return pid, h
}

// Height implements idx.Index.
func (t *Tree) Height() int {
	_, h := t.RootHeight()
	return h
}

// FirstLeaf returns the leftmost leaf page (0 on an empty tree).
func (t *Tree) FirstLeaf() uint32 { return t.firstLeaf.Load() }

// SetFirstLeaf publishes the leftmost leaf page of a tree under
// construction; SetRoot then makes the tree reachable.
func (t *Tree) SetFirstLeaf(pid uint32) { t.firstLeaf.Store(pid) }

// SetRoot publishes a new (root page, height) pair.
func (t *Tree) SetRoot(root uint32, height int) { t.meta.Store(root, 0, height) }

// DurableMeta implements idx.Recoverable: the root pair plus the
// leftmost-leaf page are the tree's only essential in-memory state —
// everything else lives on the pages themselves.
func (t *Tree) DurableMeta() idx.DurableMeta {
	pid, off, h := t.meta.Load()
	return idx.DurableMeta{RootPID: pid, RootOff: off, Height: h, LeftPID: t.firstLeaf.Load()}
}

// RestoreMeta implements idx.Recoverable: republish the pointers a
// recovery replay restored the pages for.
func (t *Tree) RestoreMeta(dm idx.DurableMeta) error {
	t.meta.Store(dm.RootPID, dm.RootOff, dm.Height)
	t.firstLeaf.Store(dm.LeftPID)
	return nil
}

// GetWrite pins pid for mutation: exclusively latched in concurrent
// mode, a plain pin in sequential mode (identical pool call order
// either way, so simulated costs are unchanged).
func (t *Tree) GetWrite(pid uint32) (buffer.Page, error) {
	if t.conc {
		return t.pool.GetX(pid)
	}
	return t.pool.Get(pid)
}

// NewPageWrite allocates a page pinned for mutation (see GetWrite).
func (t *Tree) NewPageWrite() (buffer.Page, error) {
	if t.conc {
		return t.pool.NewPageX()
	}
	return t.pool.NewPage()
}

var errNilChild = fmt.Errorf("pagetree: nil child during descent")

// LeafFor descends from the given (root, height) snapshot to the leaf
// page that would contain k, charging normal search traffic (see
// Layout.ChildFor for lt). On a latched pool each child is pinned
// (shared-latched) before the parent's latch is released, so the child
// pointer just read cannot be restructured out from under the descent;
// acquisitions run strictly top-down, consistent with writer crabbing,
// so blocking here cannot deadlock. Sequentially the parent is
// released before the child is pinned: the simulated I/O counts depend
// on that pool call order.
func (t *Tree) LeafFor(root uint32, height int, k idx.Key, lt bool) (uint32, error) {
	pid := root
	var parent buffer.Page
	for lvl := height - 1; lvl > 0; lvl-- {
		pg, err := t.pool.Get(pid)
		if parent.Valid() {
			t.pool.Unpin(parent, false)
			parent = buffer.Page{}
		}
		if err != nil {
			return 0, err
		}
		t.lay.TouchHeader(pg)
		pid, _ = t.lay.ChildFor(pg, k, lt)
		if t.conc && pid != 0 {
			parent = pg
		} else {
			t.pool.Unpin(pg, false)
		}
		if pid == 0 {
			return 0, errNilChild
		}
	}
	if parent.Valid() {
		t.pool.Unpin(parent, false)
	}
	return pid, nil
}

// Insert adds (k, tid). On a latched pool the leaf-only write (opt.go)
// takes it whenever the leaf cannot split, and exclusive latch crabbing
// otherwise; sequentially it is the recursive descent below.
func (t *Tree) Insert(k idx.Key, tid idx.TupleID) error {
	if t.conc {
		if done, err := t.insertLeafOpt(k, tid); done || err != nil {
			return err
		}
		return t.insertConc(k, tid)
	}
	root, height := t.RootHeight()
	if root == 0 {
		if err := t.createRoot(); err != nil {
			return err
		}
		root, height = t.RootHeight()
	}
	split, sep, newPID, err := t.insertInto(root, height-1, k, tid)
	if err != nil || !split {
		return err
	}
	old, err := t.pool.Get(root)
	if err != nil {
		return err
	}
	oldMin := t.lay.MinKey(old.Data)
	t.pool.Unpin(old, false)
	return t.growRoot(height, oldMin, root, sep, newPID)
}

// createRoot creates the first (empty leaf) root. The mutex only
// serializes this one transition among concurrent writers — the page
// is invisible until the meta store publishes it.
func (t *Tree) createRoot() error {
	t.growMu.Lock()
	defer t.growMu.Unlock()
	if root, _ := t.RootHeight(); root != 0 {
		return nil
	}
	pg, err := t.NewPageWrite()
	if err != nil {
		return err
	}
	err = t.lay.InitLeafRoot(pg.Data)
	t.pool.Unpin(pg, true)
	if err != nil {
		return err
	}
	t.firstLeaf.Store(pg.ID)
	t.meta.Store(pg.ID, 0, 1)
	return nil
}

// growRoot puts a new root above the split old root (left, whose
// minimum key is leftMin) and its new right sibling, publishing the
// (root, height) pair last. In concurrent mode the caller holds the
// old root exclusively, so no other writer can race the meta update.
func (t *Tree) growRoot(height int, leftMin idx.Key, left uint32, sep idx.Key, right uint32) error {
	pg, err := t.NewPageWrite()
	if err != nil {
		return err
	}
	err = t.lay.InitRoot(pg.Data, height, leftMin, left, sep, right)
	t.pool.Unpin(pg, true)
	if err != nil {
		return err
	}
	t.meta.Store(pg.ID, 0, height+1)
	return nil
}

// insertInto inserts (k, p) into the subtree rooted at pid (at the
// given level). If the page splits, it returns the separator and new
// page for the caller to install.
func (t *Tree) insertInto(pid uint32, lvl int, k idx.Key, p uint32) (bool, idx.Key, uint32, error) {
	pg, err := t.pool.Get(pid)
	if err != nil {
		return false, 0, 0, err
	}
	t.lay.TouchHeader(pg)
	if lvl > 0 {
		child, lowered := t.lay.ChildForInsert(pg, k)
		t.pool.Unpin(pg, lowered)
		childSplit, sep, newPID, err := t.insertInto(child, lvl-1, k, p)
		if err != nil || !childSplit {
			return false, 0, 0, err
		}
		// Re-fix the page and install the separator.
		k, p = sep, newPID
		if pg, err = t.pool.Get(pid); err != nil {
			return false, 0, 0, err
		}
	}
	ok, err := t.lay.InsertOnePage(pg, k, p)
	if err != nil || ok {
		t.pool.Unpin(pg, true)
		return false, 0, 0, err
	}
	sep, newPID, err := t.splitInsert(pg, k, p)
	t.pool.Unpin(pg, true)
	return err == nil, sep, newPID, err
}

// splitInsert splits the full page pg, which the caller holds pinned
// for mutation and unpins dirty, and inserts (k, p) into whichever
// half now covers k. The new right page is unreachable while pg is
// held, so re-pinning it cannot block on another writer.
func (t *Tree) splitInsert(pg buffer.Page, k idx.Key, p uint32) (idx.Key, uint32, error) {
	sep, newPID, err := t.lay.SplitPage(pg)
	if err != nil {
		return 0, 0, err
	}
	target := pg
	if k >= sep {
		if target, err = t.GetWrite(newPID); err != nil {
			return 0, 0, err
		}
	}
	ok, err := t.lay.InsertOnePage(target, k, p)
	if target.ID != pg.ID {
		t.pool.Unpin(target, true)
	}
	if err == nil && !ok {
		err = fmt.Errorf("pagetree: insert failed after splitting page %d", pg.ID)
	}
	return sep, newPID, err
}

// Walk visits every page of the tree level by level from the root
// down, each level left to right along its sibling chain, with the
// page pinned and no memory-model charge.
func (t *Tree) Walk(visit func(lvl int, d []byte)) error {
	return t.walk(false, visit)
}

// FreeAll returns every page of the tree to the pool and leaves the
// tree empty.
func (t *Tree) FreeAll() error {
	if err := t.walk(true, func(int, []byte) {}); err != nil {
		return err
	}
	t.meta.Store(0, 0, 0)
	t.firstLeaf.Store(0)
	return nil
}

func (t *Tree) walk(free bool, visit func(lvl int, d []byte)) error {
	pid, height := t.RootHeight()
	for lvl := height - 1; lvl >= 0 && pid != 0; lvl-- {
		// Remember the leftmost child before leaving this level.
		var childFirst uint32
		for cur := pid; cur != 0; {
			pg, err := t.pool.Get(cur)
			if err != nil {
				return err
			}
			visit(lvl, pg.Data)
			if lvl > 0 && childFirst == 0 {
				childFirst = t.lay.FirstChild(pg.Data)
			}
			next := t.lay.Next(pg.Data)
			t.pool.Unpin(pg, false)
			if free {
				if err := t.pool.FreePage(cur); err != nil {
					return err
				}
			}
			cur = next
		}
		pid = childFirst
	}
	return nil
}

// PageCount implements idx.Index.
func (t *Tree) PageCount() int {
	total := 0
	if err := t.Walk(func(int, []byte) { total++ }); err != nil {
		return -1
	}
	return total
}

// Scavenge rebuilds the tree from its surviving leaf chain after
// permanent page loss or detected corruption. The walk starts at the
// in-memory leftmost-leaf pointer (which survives any media failure)
// and salvages entries until the chain ends or turns bad: an
// unreadable page, a page the layout rejects, a key regression, or a
// chain longer than the allocated page set (loop guard). The old page
// set is abandoned without recycling its IDs — a permanently
// unreadable ID must never be reallocated into the new tree — and
// stale buffered copies are discarded rather than flushed. bulkload is
// the layout's Bulkload.
func (t *Tree) Scavenge(bulkload func([]idx.Entry, float64) error) (idx.ScavengeStats, error) {
	var st idx.ScavengeStats
	var entries []idx.Entry
	maxLeaves := int(t.pool.MaxPageID())
	for pid := t.firstLeaf.Load(); pid != 0; {
		if st.LeavesRead >= maxLeaves {
			st.Truncated = true
			break
		}
		pg, err := t.pool.Get(pid)
		if err != nil {
			st.Truncated = true
			break
		}
		from := len(entries)
		var ok bool
		entries, ok = t.lay.SalvageLeaf(pg.Data, entries)
		pid = t.lay.Next(pg.Data)
		t.pool.Unpin(pg, false)
		if !ok {
			entries = entries[:from]
			st.Truncated = true
			break
		}
		st.LeavesRead++
		for i := max(from, 1); i < len(entries); i++ {
			if entries[i].Key < entries[i-1].Key {
				entries = entries[:i]
				st.Truncated = true
				break
			}
		}
		if st.Truncated {
			break
		}
	}
	st.Entries = len(entries)

	if err := t.pool.DiscardAll(); err != nil {
		return st, err
	}
	// Zeroing the root first makes Bulkload's FreeAll a no-op, so the
	// old (possibly unreadable) pages leak instead of being recycled.
	t.meta.Store(0, 0, 0)
	t.firstLeaf.Store(0)
	return st, bulkload(entries, idx.ScavengeFill)
}
