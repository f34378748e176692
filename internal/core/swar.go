package core

import (
	"math/bits"

	"repro/internal/idx"
)

// Data-parallel (SWAR) in-page search.
//
// Keys are 4-byte little-endian uint32 values stored contiguously, so a
// single uint64 load from the page image carries two keys. The dense
// count scan compares both lanes of every load branch-free (SETcc) and
// accumulates the below/above counts; the gapped scan, which needs
// lane *positions* rather than counts, uses the classic SWAR
// comparison — bias the minuend's lane high bits, subtract, recombine
// the borrow — to build per-lane less-than/equality masks without any
// data-dependent branch. For cache-line-sized in-page nodes the linear
// scan beats the branchless binary search: no loop-carried dependency
// on the probe result, no strided access pattern, and the hardware
// prefetcher sees a pure sequential stream.
//
// The simulation's charge model is decoupled from the host-side scan:
// dense-mode searches compute the answer here and then replay the exact
// probe sequence of the binary search (pbNode.replaySearchCharges in
// leafnode.go), so virtual-time experiment tables are byte-identical to
// the binary-search build.

const (
	// swarHi selects each 32-bit lane's sign bit.
	swarHi = 0x8000000080000000
	// swarLo replicates a 1 into each lane (broadcast multiplier).
	swarLo = 0x0000000100000001

	// gapSentinel marks an empty slot in a gapped in-page leaf node.
	// It is the maximum key value; gapped mode rejects inserting it,
	// so a sentinel lane can never alias a stored key.
	gapSentinel idx.Key = ^idx.Key(0)
)

// swarBcast replicates k into both lanes of a word.
func swarBcast(k idx.Key) uint64 { return uint64(k) * swarLo }

// swarLT returns a mask with lane sign bits set where the unsigned
// 32-bit lane of x is less than the lane of y.
//
// d = (x|H) - (y&~H) forces the minuend's lane high bit on and the
// subtrahend's off, so no borrow crosses a lane boundary and each lane
// of d carries 2^31 + xlow - ylow; its sign bit is therefore the
// negation of the low-31-bit borrow. Recombining with the operands'
// own high bits gives exactly x < y per lane:
//
//	lt = (~hx & hy) | ((hx == hy) & borrowLow)
func swarLT(x, y uint64) uint64 {
	d := (x | swarHi) - (y &^ swarHi)
	return swarHi & ((^x & y) | (^(x ^ y) &^ d))
}

// swarEQ returns a mask with lane sign bits set where the lanes of x
// and y are equal. Derived from two exact less-than masks; the classic
// haszero trick is avoided because its borrow can cross lanes.
func swarEQ(x, y uint64) uint64 {
	return swarHi &^ (swarLT(x, y) | swarLT(y, x))
}

// swarCountWords is the scan kernel: count lanes < kk and
// lanes > kk over `words` uint64 loads from p. Each load carries two
// key lanes; the lanes are compared branch-free (the comparisons lower
// to SETcc, never to data-dependent jumps) and the below/above
// counters accumulate independently, so the only loop-carried
// dependency is the counter adds. This beats the classic
// mask-and-popcount SWAR reduction on current cores — assembling the
// lane masks costs more ALU ops per word than four flag-setting
// compares — while keeping the same two-keys-per-load layout.
func swarCountWords(p []byte, words int, kk uint64) (cLT, cGT int) {
	if words <= 0 {
		return 0, 0
	}
	k := uint32(kk)
	p = p[:8*words] // one bounds check for the whole scan
	for w := 0; w+8 <= len(p); w += 8 {
		x := le.Uint64(p[w:])
		lo, hi := uint32(x), uint32(x>>32)
		cLT += b2i(lo < k) + b2i(hi < k)
		cGT += b2i(lo > k) + b2i(hi > k)
	}
	return cLT, cGT
}

// swarScanDense counts the keys < k (cLT) and > k (cGT) among the cnt
// little-endian uint32 keys starting at d[base]. The array need not be
// sorted. Exactly 4*cnt bytes are read, so stale lanes past a node's
// live count are never observed.
func swarScanDense(d []byte, base, cnt int, k idx.Key) (cLT, cGT int) {
	kk := swarBcast(k)
	cLT, cGT = swarCountWords(d[base:], cnt>>1, kk)
	if cnt&1 != 0 {
		last := idx.Key(le.Uint32(d[base+4*(cnt-1):]))
		cLT += b2i(last < k)
		cGT += b2i(last > k)
	}
	return cLT, cGT
}

// swarBound turns the dense counts into the binary search's final
// insertion bound: #keys < k when lt, #keys <= k otherwise.
func swarBound(cnt, cLT, cGT int, lt bool) int {
	if lt {
		return cLT
	}
	return cnt - cGT
}

// swarWindow is where the sorted dense search switches from binary
// narrowing to the linear lane scan: at 16 keys (8 words, one or two
// cache lines) the branch-free linear scan beats further dependent
// probe steps, while a linear scan over a whole multi-line node does
// not — the crossover the `fpbench -inpage` sweep measures.
const swarWindow = 16

// swarScanSorted computes the branchless binary search's insertion
// bound (#keys < k when lt, #keys <= k otherwise) over a sorted dense
// key array: nodes wider than swarWindow narrow with uncharged
// branch-free binary steps — the same update rule as the branchless
// search — and the SWAR lane scan finishes the remaining window;
// cache-line-sized nodes go straight to the scan. Duplicates are
// exact: narrowing preserves "every key below lo qualifies, none at or
// above hi does", so the bound is lo plus the in-window qualifiers.
func swarScanSorted(d []byte, base, cnt int, k idx.Key, lt bool) int {
	lo, hi := 0, cnt
	ge := b2i(!lt)
	for hi-lo > swarWindow {
		mid := (lo + hi) / 2
		mk := idx.Key(le.Uint32(d[base+4*mid:]))
		right := b2i(mk < k) | ge&b2i(mk == k)
		lo += right * (mid + 1 - lo)
		hi = mid + right*(hi-mid)
	}
	// The window scan is swarScanDense flattened in place: at
	// cache-line node sizes a search is ~20 ns, so the extra call
	// frame of the wrapper is a measurable slice of the whole search.
	n := hi - lo
	wb := base + 4*lo
	cLT, cGT := swarCountWords(d[wb:], n>>1, swarBcast(k))
	if n&1 != 0 {
		last := idx.Key(le.Uint32(d[wb+4*(n-1):]))
		cLT += b2i(last < k)
		cGT += b2i(last > k)
	}
	if lt {
		return lo + cLT
	}
	return hi - cGT
}

// swarScanGapped searches a gapped leaf node: slots physical slots of
// which the ones holding gapSentinel are empty, with the live keys
// sorted among themselves. It returns the highest physical slot whose
// key is < k (lt) or <= k (!lt) — the same predecessor contract as the
// dense search, for which count-1 and highest-qualifying-slot
// coincide — and whether any live key equals k. Sentinel lanes never
// qualify: for lt they fail key < k (the sentinel is the maximum key),
// and for <= they are masked explicitly so probing k == gapSentinel
// cannot match a gap.
func swarScanGapped(d []byte, base, slots int, k idx.Key, lt bool) (int, bool) {
	kk := swarBcast(k)
	ss := swarBcast(gapSentinel)
	slot := -1
	anyEq := false
	words := slots >> 1
	for w := 0; w < words; w++ {
		x := le.Uint64(d[base+8*w:])
		sent := swarEQ(x, ss)
		var qual uint64
		if lt {
			qual = swarLT(x, kk)
		} else {
			qual = (swarHi &^ swarLT(kk, x)) &^ sent
		}
		if qual != 0 {
			slot = 2*w + (63-bits.LeadingZeros64(qual))>>5
		}
		anyEq = anyEq || swarEQ(x, kk)&^sent != 0
	}
	if slots&1 != 0 {
		i := slots - 1
		x := idx.Key(le.Uint32(d[base+4*i:]))
		if x != gapSentinel {
			if x < k || (!lt && x == k) {
				slot = i
			}
			anyEq = anyEq || x == k
		}
	}
	return slot, anyEq
}
