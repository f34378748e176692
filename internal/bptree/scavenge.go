package bptree

import "repro/internal/idx"

// Scavenge implements idx.Index: pagetree salvages the surviving leaf
// chain and Bulkload rebuilds the tree from it.
func (t *Tree) Scavenge() (idx.ScavengeStats, error) { return t.Tree.Scavenge(t.Bulkload) }

// SalvageLeaf implements pagetree.Layout.
func (t *Tree) SalvageLeaf(d []byte, dst []idx.Entry) ([]idx.Entry, bool) {
	n := pCount(d)
	if pType(d) != pageLeaf || n > t.cap {
		return dst, false
	}
	for i := 0; i < n; i++ {
		dst = append(dst, idx.Entry{Key: t.key(d, i), TID: t.ptr(d, i)})
	}
	return dst, true
}
