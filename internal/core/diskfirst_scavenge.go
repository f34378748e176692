package core

import "repro/internal/idx"

// Scavenge implements idx.Index: pagetree salvages the surviving
// leaf-page chain and Bulkload rebuilds the tree from it.
func (t *DiskFirst) Scavenge() (idx.ScavengeStats, error) { return t.Tree.Scavenge(t.Bulkload) }

// SalvageLeaf implements pagetree.Layout: the page's entries in key
// order, via its in-page leaf chain.
func (t *DiskFirst) SalvageLeaf(d []byte, dst []idx.Entry) ([]idx.Entry, bool) {
	if dfType(d) != pageLeaf || dfEntries(d) > t.fanout {
		return dst, false
	}
	page := t.collectEntries(d)
	if len(page) > t.fanout {
		return dst, false
	}
	return append(dst, page...), true
}
