package core

import (
	"slices"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/memsim"
	"repro/internal/obs"
)

// The pB+-Tree node kernel. Both fpB+-Tree variants are built from the
// prefetching B+-Tree's node (§3.1: disk-first's in-page trees; §3.2:
// cache-first's node tree); only the way nodes are placed into pages
// differs. Their leaf nodes share one byte layout — a count at the
// node's first byte, a header of hdr bytes, capL 4-byte keys, capL
// 4-byte pointers — and cache-first's nonleaf nodes share it up to the
// key array. pbNode, embedded by value in DiskFirst and CacheFirst,
// holds every per-node kernel once: positions, the search with its
// charge replay and baselines, the gapped layout, insert, remove, the
// leaf split and the range scan's per-node loop. Disk-first's in-page
// nonleaf nodes have a shorter header, so DiskFirst holds a second
// pbNode value for them and searches them with the same body.

// pageLeaf is a leaf page's kind. Both trees keep a page's kind in byte
// 0 and number leaf pages 1, so "a gapped leaf page" is one check.
const pageLeaf = 1

// pbNode is the node layout and the kernels over it.
type pbNode struct {
	mm     *memsim.Model
	hdr    int  // node header bytes, before the key array
	capL   int  // entry capacity (capN for disk-first's nonleaf value)
	gapped bool // leaf pages' leaf nodes keep interleaved gap slots

	// Node-layout metrics: keys displaced per leaf insert (recorded in
	// both layouts, so the gapped win is measurable against dense) and
	// inserts that landed in an adjacent gap with zero displacement.
	shiftHist *obs.Histogram
	gapFills  atomic.Uint64
}

// A node is identified by its starting line number within the page.
func nodeBase(off int) int { return off * lineSize }

func (n *pbNode) count(d []byte, off int) int            { return int(le.Uint16(d[nodeBase(off):])) }
func (n *pbNode) setCount(d []byte, off, v int)          { le.PutUint16(d[nodeBase(off):], uint16(v)) }
func (n *pbNode) keyPos(off, i int) int                  { return nodeBase(off) + n.hdr + 4*i }
func (n *pbNode) ptrPos(off, i int) int                  { return nodeBase(off) + n.hdr + 4*n.capL + 4*i }
func (n *pbNode) key(d []byte, off, i int) idx.Key       { return le.Uint32(d[n.keyPos(off, i):]) }
func (n *pbNode) ptrAt(d []byte, off, i int) uint32      { return le.Uint32(d[n.ptrPos(off, i):]) }
func (n *pbNode) setKey(d []byte, off, i int, k idx.Key) { le.PutUint32(d[n.keyPos(off, i):], k) }
func (n *pbNode) setPtr(d []byte, off, i int, v uint32)  { le.PutUint32(d[n.ptrPos(off, i):], v) }

// GapFills reports inserts that filled an adjacent gap slot without
// displacing any key (see idx.RegisterMetrics).
func (n *pbNode) GapFills() uint64 { return n.gapFills.Load() }

// AttachShiftHistogram wires the node.insert_shift_keys histogram.
func (n *pbNode) AttachShiftHistogram(h *obs.Histogram) { n.shiftHist = h }

// recordShift notes how many keys a leaf insert displaced.
func (n *pbNode) recordShift(moved int) {
	if n.shiftHist != nil {
		n.shiftHist.Record(uint64(moved))
	}
}

// --- search ---

// b2i turns a comparison into an arithmetic select operand; the
// compiler lowers it to SETcc/CSET, so the search loops below carry no
// data-dependent branch the predictor could miss on (random keys make
// every probe a coin flip).
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// search finds the largest slot of node off with key <= k (lt: < k),
// -1 if none, and whether that slot's key equals k (reported for <=
// searches only, matching the binary search it replaced). Dense nodes
// answer via the hybrid data-parallel scan (binary narrowing to a
// window, SWAR lane compares inside it, see swar.go); the branchless
// binary search's exact probe sequence is then replayed for the memory
// model, so simulation outputs stay byte-identical. A leaf node of a
// gapped leaf page answers via the sentinel-skipping positional scan
// over all capL slots, whose result is the highest live physical slot
// satisfying the bound — the same predecessor contract, over a sparse
// array.
func (n *pbNode) search(pg buffer.Page, off int, k idx.Key, lt bool) (int, bool) {
	d := pg.Data
	base := n.keyPos(off, 0)
	if n.gappedPage(d) {
		slot, anyEq := swarScanGapped(d, base, n.capL, k, lt)
		n.chargeGappedScan(pg, base)
		return slot, !lt && anyEq
	}
	cnt := n.count(d, off)
	var lo int
	if cnt <= swarWindow {
		// Window-sized node: one straight-line scan, no hybrid frame.
		// Duplicates swarScanSorted's no-narrowing arm because the
		// call itself costs ~5% of a cache-line-node search.
		cLT, cGT := swarCountWords(d[base:], cnt>>1, swarBcast(k))
		if cnt&1 != 0 {
			last := idx.Key(le.Uint32(d[base+4*(cnt-1):]))
			cLT += b2i(last < k)
			cGT += b2i(last > k)
		}
		lo = swarBound(cnt, cLT, cGT, lt)
	} else {
		lo = swarScanSorted(d, base, cnt, k, lt)
	}
	// On a sorted node the exact-match bit is just "the predecessor
	// equals k": one load instead of a second counting pass.
	exact := !lt && lo > 0 && idx.Key(le.Uint32(d[base+4*(lo-1):])) == k
	// Checked here as well as inside the replay: in wall-clock mode
	// this saves the call entirely, and searches are the hot path.
	if !n.mm.Concurrent() {
		n.replaySearchCharges(pg, base, cnt, lo)
	}
	return lo - 1, exact
}

// replaySearchCharges re-issues the exact memory charges of the
// branchless binary search over the cnt keys at base after the SWAR
// scan has already computed its final bound. Each step of that search
// goes right iff mid < finalLo (lo only advances past probed keys <(=)
// k, hi only drops onto probed keys that are not), so the probe
// sequence — and with it every mm.Access/Busy/Other — is a pure
// function of (cnt, finalLo). In wall-clock serving mode the model is
// frozen and the replay is skipped outright.
func (n *pbNode) replaySearchCharges(pg buffer.Page, base, cnt, finalLo int) {
	if n.mm.Concurrent() {
		return
	}
	lo, hi := 0, cnt
	for lo < hi {
		mid := (lo + hi) / 2
		n.mm.Access(pg.Addr+uint64(base+4*mid), 4)
		n.mm.Busy(memsim.CostCompare)
		n.mm.Other(memsim.CostComparePenalty)
		right := b2i(mid < finalLo)
		lo += right * (mid + 1 - lo)
		hi = mid + right*(hi-mid)
	}
}

// chargeGappedScan is the charge model of a gapped-leaf SWAR search:
// one access over the capL-slot key region at base, compare cost per
// word scanned, and a single mispredict-penalty term. Gapped mode has
// no byte-identity requirement, so the model is defined here rather
// than replayed from the binary search (see DESIGN.md §13).
func (n *pbNode) chargeGappedScan(pg buffer.Page, base int) {
	if n.mm.Concurrent() {
		return
	}
	n.mm.Access(pg.Addr+uint64(base), 4*n.capL)
	n.mm.Busy(memsim.CostCompare * uint64((n.capL+1)/2))
	n.mm.Other(memsim.CostComparePenalty)
}

// The two searches the SWAR kernel replaced, kept as the baselines that
// the equivalence tests and `fpbench -inpage` compare against. Both
// serve dense nodes only: they predate the gapped layout.

// searchBranchless is the pre-SWAR branchless binary search.
func (n *pbNode) searchBranchless(pg buffer.Page, off int, k idx.Key, lt bool) (int, bool) {
	lo, hi := 0, n.count(pg.Data, off)
	ge := b2i(!lt) // equal keys send the descent right unless strictly-less
	exact := 0
	for lo < hi {
		mid := (lo + hi) / 2
		mk := n.probe(pg, n.keyPos(off, mid))
		eq := b2i(mk == k)
		right := b2i(mk < k) | ge&eq
		exact |= right & eq
		lo += right * (mid + 1 - lo)
		hi = mid + right*(hi-mid)
	}
	return lo - 1, exact != 0
}

// searchReference is the original branchy binary search, the semantic
// baseline.
func (n *pbNode) searchReference(pg buffer.Page, off int, k idx.Key, lt bool) (int, bool) {
	lo, hi := 0, n.count(pg.Data, off)
	exact := false
	for lo < hi {
		mid := (lo + hi) / 2
		mk := n.probe(pg, n.keyPos(off, mid))
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

// probe reads and compares one key at a byte position in the page.
func (n *pbNode) probe(pg buffer.Page, pos int) idx.Key {
	n.mm.Access(pg.Addr+uint64(pos), 4)
	n.mm.Busy(memsim.CostCompare)
	n.mm.Other(memsim.CostComparePenalty)
	return le.Uint32(pg.Data[pos:])
}

// --- gapped leaf layout ---
//
// The gapped layout applies only to the leaf nodes of LEAF pages:
// disk-first's nonleaf pages hold child page IDs in their in-page leaf
// nodes, and every descent and JPA path assumes them dense. A gap slot
// carries gapSentinel in its key and 0 in its pointer; the count field
// keeps the live occupancy, and live keys are sorted among themselves,
// so the physical iteration bound of a gapped node is capL, not its
// count.

// gappedPage reports whether page d's leaf nodes use the gapped layout.
func (n *pbNode) gappedPage(d []byte) bool { return n.gapped && d[0] == pageLeaf }

// slots is the physical iteration bound of leaf node off.
func (n *pbNode) slots(d []byte, off int) int {
	if n.gappedPage(d) {
		return n.capL
	}
	return n.count(d, off)
}

// nextOccupied returns the first live physical slot >= i of leaf node
// off, or -1. In the dense layout this is i itself when in range —
// structurally identical to the `slot < count` guards it replaces, so
// dense call sites keep their exact charge sequences.
func (n *pbNode) nextOccupied(d []byte, off, i int) int {
	if !n.gappedPage(d) {
		if i < n.count(d, off) {
			return i
		}
		return -1
	}
	for ; i < n.capL; i++ {
		if n.key(d, off, i) != gapSentinel {
			return i
		}
	}
	return -1
}

// entries appends the live entries of leaf node off to dst, in key
// order (uncharged).
func (n *pbNode) entries(dst []idx.Entry, d []byte, off int) []idx.Entry {
	for i := n.nextOccupied(d, off, 0); i >= 0; i = n.nextOccupied(d, off, i+1) {
		dst = append(dst, idx.Entry{Key: n.key(d, off, i), TID: n.ptrAt(d, off, i)})
	}
	return dst
}

// sentinelFill marks every key slot of a fresh gapped leaf node as a
// gap. Required on every allocation: nodes are zero-filled and key 0
// is a valid key, not a gap.
func (n *pbNode) sentinelFill(d []byte, off int) {
	for i := 0; i < n.capL; i++ {
		n.setKey(d, off, i, gapSentinel)
	}
}

// spread lays es into a gapped leaf node, entry j at physical slot
// floor(j*capL/len(es)), gaps everywhere else. Entry 0 always lands at
// slot 0, so a node's minimum key stays at a fixed position.
// Uncharged, like a bulkload.
func (n *pbNode) spread(d []byte, off int, es []idx.Entry) {
	n.sentinelFill(d, off)
	for j, e := range es {
		at := j * n.capL / len(es)
		n.setKey(d, off, at, e.Key)
		n.setPtr(d, off, at, e.TID)
	}
	n.setCount(d, off, len(es))
}

// splitAt is the occupancy at which an inserting leaf node of page d
// splits. Dense nodes split only when physically full; gapped nodes
// split at two-thirds capacity, packed-memory-array style: past that
// density the nearest gap is many slots away and every insert
// degenerates to a dense-style long shift (or a rebalance), so gapped
// mode trades a third of the slots to keep inserts O(gap distance).
func (n *pbNode) splitAt(d []byte) int {
	if n.gappedPage(d) {
		return n.capL - n.capL/3
	}
	return n.capL
}

// --- insert, remove, split ---

// move copies the cnt entries at slots [from, from+cnt) of node off to
// [to, to+cnt), charging the data movement from the lower of the two.
func (n *pbNode) move(pg buffer.Page, off, to, from, cnt int) {
	d := pg.Data
	copy(d[n.keyPos(off, to):n.keyPos(off, to+cnt)], d[n.keyPos(off, from):n.keyPos(off, from+cnt)])
	copy(d[n.ptrPos(off, to):n.ptrPos(off, to+cnt)], d[n.ptrPos(off, from):n.ptrPos(off, from+cnt)])
	low := min(to, from)
	n.mm.Copy(pg.Addr+uint64(n.keyPos(off, low)), cnt*4)
	n.mm.Copy(pg.Addr+uint64(n.ptrPos(off, low)), cnt*4)
}

// insert writes (k, p) into leaf-layout node off, whose predecessor for
// k sits at slot (-1 when no live key qualifies), charging the data
// movement. A dense node shifts its tail right: the small data
// movement that replaces the disk-optimized tree's page-wide shifts.
// A gapped node fills the next slot if it is a gap, with zero key
// movement; otherwise entries shift one position toward the nearest
// gap (left or right) — O(distance-to-gap) moves instead of O(node
// tail) — or, when that gap is far, the node is respread.
func (n *pbNode) insert(pg buffer.Page, off, slot int, k idx.Key, p uint32) {
	d := pg.Data
	cnt := n.count(d, off)
	pos, moved := slot+1, cnt-slot-1
	switch {
	case !n.gappedPage(d):
		if moved > 0 {
			n.move(pg, off, pos+1, pos, moved)
		}
	case pos < n.capL && n.key(d, off, pos) == gapSentinel:
		n.gapFills.Add(1)
		moved = 0
	default:
		// Find the nearest gap on each side of the insertion point.
		gl, gr := -1, -1
		for i := slot; i >= 0 && gl < 0; i-- {
			if n.key(d, off, i) == gapSentinel {
				gl = i
			}
		}
		for i := pos + 1; i < n.capL && gr < 0; i++ {
			if n.key(d, off, i) == gapSentinel {
				gr = i
			}
		}
		left := gl >= 0 && (gr < 0 || slot-gl < gr-pos)
		if left {
			moved = slot - gl
		} else {
			moved = gr - pos
		}
		if moved > n.capL/8 {
			// The nearest gap is far: a one-slot shift chain would cost
			// nearly as much as a dense insert and leave the cluster
			// just as dense for the next one. Rebalance instead —
			// respread every live entry (plus the new one) evenly so
			// gaps return to the hot spot. Costs O(occupancy) once, then
			// the following inserts in this region are O(1) again.
			es := n.entries(make([]idx.Entry, 0, cnt+1), d, off)
			at := 0
			for at < len(es) && es[at].Key <= k {
				at++
			}
			n.spread(d, off, slices.Insert(es, at, idx.Entry{Key: k, TID: p}))
			n.mm.Copy(pg.Addr+uint64(n.keyPos(off, 0)), cnt*4)
			n.mm.Copy(pg.Addr+uint64(n.ptrPos(off, 0)), cnt*4)
			n.recordShift(cnt)
			return
		}
		if left {
			// Shift (gl+1 .. slot) left one slot; k lands on slot.
			n.move(pg, off, gl, gl+1, moved)
			pos = slot
		} else {
			// Shift (pos .. gr-1) right one slot; k lands on pos.
			n.move(pg, off, pos+1, pos, moved)
		}
	}
	n.setKey(d, off, pos, k)
	n.setPtr(d, off, pos, p)
	n.setCount(d, off, cnt+1)
	n.mm.Access(pg.Addr+uint64(n.keyPos(off, pos)), 4)
	n.mm.Access(pg.Addr+uint64(n.ptrPos(off, pos)), 4)
	// Disk-first's nonleaf pages route child-pointer installs through
	// this same kernel; the shift histogram tracks only data-leaf
	// inserts.
	if d[0] == pageLeaf {
		n.recordShift(moved)
	}
}

// remove deletes the entry at slot of leaf node off. A gapped node
// punches a gap (O(1), no shifting); a dense node shifts its tail left.
func (n *pbNode) remove(pg buffer.Page, off, slot int) {
	d := pg.Data
	cnt := n.count(d, off)
	if n.gappedPage(d) {
		n.setKey(d, off, slot, gapSentinel)
		n.mm.Access(pg.Addr+uint64(n.keyPos(off, slot)), 4)
	} else if moved := cnt - slot - 1; moved > 0 {
		n.move(pg, off, slot, slot+1, moved)
	}
	n.setCount(d, off, cnt-1)
}

// split moves the upper half of leaf node off of pg into the empty
// node roff of rpg (which may be pg itself) and returns the right
// node's first key, the separator. Gapped nodes split early (at
// splitAt), so their live entries are collected across the gaps and
// each half is re-spread with fresh interleaved gaps. The sibling
// links are the caller's.
func (n *pbNode) split(pg buffer.Page, off int, rpg buffer.Page, roff int) idx.Key {
	d, rd := pg.Data, rpg.Data
	cnt := n.count(d, off)
	mid := cnt / 2
	moved := cnt - mid
	if n.gappedPage(d) {
		es := n.entries(make([]idx.Entry, 0, cnt), d, off)
		n.spread(d, off, es[:mid])
		n.spread(rd, roff, es[mid:])
	} else {
		copy(rd[n.keyPos(roff, 0):n.keyPos(roff, moved)], d[n.keyPos(off, mid):n.keyPos(off, cnt)])
		copy(rd[n.ptrPos(roff, 0):n.ptrPos(roff, moved)], d[n.ptrPos(off, mid):n.ptrPos(off, cnt)])
		n.setCount(rd, roff, moved)
		n.setCount(d, off, mid)
	}
	n.mm.CopyBetween(rpg.Addr+uint64(n.keyPos(roff, 0)), pg.Addr+uint64(n.keyPos(off, mid)), moved*4)
	n.mm.CopyBetween(rpg.Addr+uint64(n.ptrPos(roff, 0)), pg.Addr+uint64(n.ptrPos(off, mid)), moved*4)
	return n.key(rd, roff, 0)
}

// --- range scan ---

// nodeScan is a range scan's per-entry state: the bounds, the consumer
// and what it has been handed so far. Its one method delivers a leaf
// node's entries; the page walk around it is the variant's.
type nodeScan struct {
	n       *pbNode
	lo, hi  idx.Key
	reverse bool
	fn      func(idx.Key, idx.TupleID) bool // nil: entries are only counted

	count int     // entries delivered
	last  idx.Key // the latest of them, once count > 0
}

// node delivers the entries of leaf node off of pg with keys in
// [lo, hi], from slot from to the node's end in the scan's direction
// (slot slots-1, or 0 in reverse), and reports whether the scan is over:
// fn returned false, or a key beyond the far bound was met. Gapped
// nodes skip their sentinel slots before any bound check, the sentinel
// being the largest key.
func (s *nodeScan) node(pg buffer.Page, off, from, slots int) bool {
	d := pg.Data
	mm, keys, vals := s.n.mm, s.n.keyPos(off, 0), s.n.ptrPos(off, 0)
	gapped := s.n.gappedPage(d)
	charge := !mm.Concurrent() // a serving tree's model is frozen
	end, step := slots, 1
	if s.reverse {
		end, step = -1, -1
	}
	for i := from; i != end; i += step {
		k := le.Uint32(d[keys+4*i:])
		if gapped && k == gapSentinel {
			continue
		}
		if charge {
			mm.Access(pg.Addr+uint64(keys+4*i), 4)
		}
		if k < s.lo || k > s.hi {
			if (k < s.lo) == s.reverse {
				return true // past the far bound
			}
			continue
		}
		if charge {
			mm.Access(pg.Addr+uint64(vals+4*i), 4)
			mm.Busy(memsim.CostEntryVisit)
		}
		s.count++
		s.last = k
		if s.fn != nil && !s.fn(k, le.Uint32(d[vals+4*i:])) {
			return true
		}
	}
	return false
}
