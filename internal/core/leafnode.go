package core

import (
	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/memsim"
)

// The leaf-node kernels disk-first and cache-first share. Their leaf
// nodes have one byte layout — a header (of different sizes), capL
// 4-byte keys, capL 4-byte pointers — so code that is handed the key
// array's offset and capL serves both.

// nodeScan is a range scan's per-entry state: the bounds, the consumer
// and what it has been handed so far. Its one method delivers a leaf
// node's entries; the page walk around it is the variant's.
type nodeScan struct {
	mm      *memsim.Model
	lo, hi  idx.Key
	reverse bool
	fn      func(idx.Key, idx.TupleID) bool // nil: entries are only counted

	count int     // entries delivered
	last  idx.Key // the latest of them, once count > 0
}

// node delivers the entries of one leaf node of pg with keys in
// [lo, hi], from slot from to the node's end in the scan's direction
// (slot slots-1, or 0 in reverse), and reports whether the scan is over:
// fn returned false, or a key beyond the far bound was met. keys is the
// byte offset of the node's key array; gapped nodes skip their sentinel
// slots before any bound check, the sentinel being the largest key.
func (s *nodeScan) node(pg buffer.Page, keys, capL, from, slots int, gapped bool) bool {
	d := pg.Data
	charge := !s.mm.Concurrent() // a serving tree's model is frozen
	end, step := slots, 1
	if s.reverse {
		end, step = -1, -1
	}
	for i := from; i != end; i += step {
		at := keys + 4*i
		k := le.Uint32(d[at:])
		if gapped && k == gapSentinel {
			continue
		}
		if charge {
			s.mm.Access(pg.Addr+uint64(at), 4)
		}
		if k < s.lo || k > s.hi {
			if (k < s.lo) == s.reverse {
				return true // past the far bound
			}
			continue
		}
		if charge {
			s.mm.Access(pg.Addr+uint64(at+4*capL), 4)
			s.mm.Busy(memsim.CostEntryVisit)
		}
		s.count++
		s.last = k
		if s.fn != nil && !s.fn(k, le.Uint32(d[at+4*capL:])) {
			return true
		}
	}
	return false
}
