package bptree

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/memsim"
	"repro/internal/prefetch"
	"repro/internal/sizing"
)

// The layout kernels: the only code that knows whether a page carries a
// micro index (t.subsMax > 0).

// setLayout fixes the page geometry. The plain layout splits the page
// after the header evenly between the key and pointer arrays; the micro
// layout takes its sub-array size from the Table 2 optimizer in
// internal/sizing unless subarrayBytes overrides it.
func (t *Tree) setLayout(micro bool, subarrayBytes int) error {
	ps := t.pageSize
	if !micro {
		if ps < 2*headerSize {
			return fmt.Errorf("bptree: page size %d too small", ps)
		}
		t.name = "disk-optimized B+tree"
		t.cap = (ps - headerSize) / (idx.KeySize + idx.PageIDSize)
		t.keyBase = headerSize
		t.ptrBase = headerSize + idx.KeySize*t.cap
		return nil
	}
	sub := subarrayBytes
	if sub == 0 {
		c, err := sizing.MicroIndexFor(ps, sizing.DefaultParams())
		if err != nil {
			return err
		}
		sub = c.SubarrayBytes
	}
	if sub <= 0 || sub%memsim.LineSize != 0 {
		return fmt.Errorf("bptree: sub-array size %d must be a positive multiple of %d", sub, memsim.LineSize)
	}
	cap, subs := sizing.MicroIndexFanout(ps, sub/memsim.LineSize)
	if cap <= 0 {
		return fmt.Errorf("bptree: page size %d too small for %d-byte sub-arrays", ps, sub)
	}
	t.name = "micro-indexing"
	t.cap = cap
	t.microOff = headerSize
	t.keysPerSub = sub / idx.KeySize
	t.subsMax = subs
	t.subLines = sub / memsim.LineSize
	t.keyBase = headerSize + lineCeil(subs*idx.KeySize)
	t.ptrBase = t.keyBase + idx.KeySize*cap
	return nil
}

// lineCeil rounds n bytes up to whole cache lines.
func lineCeil(n int) int {
	return (n + memsim.LineSize - 1) / memsim.LineSize * memsim.LineSize
}

// subCount returns the number of populated sub-arrays for n entries.
func (t *Tree) subCount(n int) int {
	return (n + t.keysPerSub - 1) / t.keysPerSub
}

// prefetchSpan prefetches size bytes of pg from byte offset off, for
// the model (a charge; frozen in serving mode) and for the machine
// (hardware prefetch instructions). The hardware half clamps to the
// page and dereferences nothing, so off and size may come from an
// unvalidated optimistic snapshot (pg.Addr is then 0). Only the micro
// layout calls it.
func (t *Tree) prefetchSpan(pg buffer.Page, off, size int) {
	t.mm.Prefetch(pg.Addr+uint64(off), size)
	prefetch.Range(pg.Data, off, size)
}

// searchPage finds the largest slot whose key is <= k (lt: strictly
// less than k; range scans and lookups descend with this so that
// duplicates equal to a separator are not skipped), or -1 if there is
// none. exact reports whether a non-lt search met a key equal to k.
// The plain layout binary searches the page-wide key array; the micro
// layout first confines the search to one sub-array.
func (t *Tree) searchPage(pg buffer.Page, k idx.Key, lt bool) (slot int, exact bool) {
	lo, hi := 0, pCount(pg.Data) // invariant: key[lo-1] <= k < key[hi] (lt: < k <=)
	if t.subsMax > 0 && hi > 0 {
		lo, hi = t.searchMicro(pg, k, lt, hi)
	}
	for lo < hi {
		mid := (lo + hi) / 2
		mk := t.probe(pg, t.keyOff(mid))
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

// searchMicro prefetches and binary searches the micro index of a page
// holding n > 0 entries, prefetches the key and pointer sub-arrays it
// selects, and returns that sub-array's slot range.
func (t *Tree) searchMicro(pg buffer.Page, k idx.Key, lt bool, n int) (start, end int) {
	subs := t.subCount(n)
	t.prefetchSpan(pg, t.microOff, lineCeil(subs*idx.KeySize))
	lo, hi := 0, subs
	for lo < hi {
		mid := (lo + hi) / 2
		mk := t.probe(pg, t.microOff+idx.KeySize*mid)
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
	start = s * t.keysPerSub
	end = start + t.keysPerSub
	if end > n {
		end = n
	}
	t.prefetchSpan(pg, t.keyOff(start), t.subLines*memsim.LineSize)
	t.prefetchSpan(pg, t.ptrOff(start), t.subLines*memsim.LineSize)
	return start, end
}

// fillMicro rewrites the micro-index slots of the sub-arrays from the
// one holding entry pos to the last populated one, and returns the
// byte span it wrote. Uncharged (Bulkload and root growth charge
// nothing); a no-op on the plain layout.
func (t *Tree) fillMicro(d []byte, pos int) (off, size int) {
	if t.subsMax == 0 {
		return 0, 0
	}
	from, subs := pos/t.keysPerSub, t.subCount(pCount(d))
	for s := from; s < subs; s++ {
		le.PutUint32(d[t.microOff+idx.KeySize*s:], t.key(d, s*t.keysPerSub))
	}
	if subs <= from {
		return 0, 0
	}
	return t.microOff + idx.KeySize*from, (subs - from) * idx.KeySize
}

// rebuildMicro is fillMicro charging the data movement: every page
// mutation at or after entry pos calls it.
func (t *Tree) rebuildMicro(pg buffer.Page, pos int) {
	off, size := t.fillMicro(pg.Data, pos)
	t.mm.Copy(pg.Addr+uint64(off), size)
}

// lowerMinKey overwrites slot 0's key with the smaller k — a leftmost
// insert descent lowers the separator so that separators remain true
// lower bounds — charging the key's line on the plain layout and the
// micro-index rebuild on the micro layout.
func (t *Tree) lowerMinKey(pg buffer.Page, k idx.Key) {
	t.setKey(pg.Data, 0, k)
	if t.subsMax == 0 {
		t.mm.Access(pg.Addr+uint64(t.keyOff(0)), idx.KeySize)
		return
	}
	t.rebuildMicro(pg, 0)
}

// checkMicro is CheckInvariants' micro-consistency clause: every
// populated micro slot equals the first key of its sub-array.
func (t *Tree) checkMicro(pid uint32, d []byte) error {
	if t.subsMax == 0 {
		return nil
	}
	for s := 0; s < t.subCount(pCount(d)); s++ {
		if got, want := le.Uint32(d[t.microOff+idx.KeySize*s:]), t.key(d, s*t.keysPerSub); got != want {
			return fmt.Errorf("bptree: page %d micro slot %d = %d, want %d", pid, s, got, want)
		}
	}
	return nil
}
