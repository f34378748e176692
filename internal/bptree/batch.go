package bptree

import "repro/internal/idx"

// SearchBatch implements idx.Index (the level-wise descent is
// pagetree's).
func (t *Tree) SearchBatch(keys []idx.Key, out []idx.SearchResult) ([]idx.SearchResult, error) {
	t.ops.Batches.Add(1)
	t.ops.BatchedKeys.Add(uint64(len(keys)))
	return t.Tree.SearchBatch(keys, out)
}
