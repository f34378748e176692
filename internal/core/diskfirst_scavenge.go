package core

import "repro/internal/idx"

// Scavenge implements idx.Index: pagetree salvages the surviving
// leaf-page chain and Bulkload rebuilds the tree from it.
func (t *DiskFirst) Scavenge() (idx.ScavengeStats, error) { return t.Tree.Scavenge(t.Bulkload) }

// SalvageLeaf implements pagetree.Layout: the page's entries in key
// order, via its in-page leaf chain.
func (t *DiskFirst) SalvageLeaf(d []byte, dst []idx.Entry) ([]idx.Entry, bool) {
	if dfType(d) != dfPageLeaf || dfEntries(d) > t.fanout {
		return dst, false
	}
	page := t.collectEntries(d)
	if len(page) > t.fanout {
		return dst, false
	}
	for _, e := range page {
		dst = append(dst, idx.Entry{Key: e.key, TID: e.ptr})
	}
	return dst, true
}
