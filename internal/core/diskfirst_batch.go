package core

import "repro/internal/idx"

// SearchBatch implements idx.Index (the page-level-wise descent is
// pagetree's; the two-granularity in-page descent is charged per key).
func (t *DiskFirst) SearchBatch(keys []idx.Key, out []idx.SearchResult) ([]idx.SearchResult, error) {
	t.ops.Batches.Add(1)
	t.ops.BatchedKeys.Add(uint64(len(keys)))
	return t.Tree.SearchBatch(keys, out)
}
