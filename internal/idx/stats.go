package idx

import "repro/internal/obs"

// OpStats counts the operations an index has executed and the node
// visits they performed. Every variant maintains one (plain uint64
// increments on the paths that already charge the memory model), so
// callers can snapshot any Index uniformly via Stats/ResetStats.
type OpStats struct {
	Searches     uint64
	Inserts      uint64
	Deletes      uint64
	Scans        uint64
	ReverseScans uint64
	Batches      uint64
	BatchedKeys  uint64
	// NodeVisits counts visited nodes at the structure's own
	// granularity: in-page nodes for the fpB+-Tree variants and the
	// pB+-Tree, pages for the page-as-node trees.
	NodeVisits uint64
}

// AtomicOpStats is the backing every variant embeds for its operation
// counters: plain uint64 increments became data races once the
// concurrent serving mode let goroutines share a tree, and one shared
// atomic word would be a cache line every serving operation writes, so
// each counter is a per-P striped obs.Counter. The counters are exact
// under -race and unchanged in the sequential simulations, and the
// struct keeps the tree fields beside it off its stripes' lines.
// Snapshot materializes the uniform OpStats view.
type AtomicOpStats struct {
	Searches     obs.Counter
	Inserts      obs.Counter
	Deletes      obs.Counter
	Scans        obs.Counter
	ReverseScans obs.Counter
	Batches      obs.Counter
	BatchedKeys  obs.Counter
	NodeVisits   obs.Counter
}

// Snapshot returns the current counter values as an OpStats.
func (s *AtomicOpStats) Snapshot() OpStats {
	return OpStats{
		Searches:     s.Searches.Load(),
		Inserts:      s.Inserts.Load(),
		Deletes:      s.Deletes.Load(),
		Scans:        s.Scans.Load(),
		ReverseScans: s.ReverseScans.Load(),
		Batches:      s.Batches.Load(),
		BatchedKeys:  s.BatchedKeys.Load(),
		NodeVisits:   s.NodeVisits.Load(),
	}
}

// Reset zeroes every counter.
func (s *AtomicOpStats) Reset() {
	s.Searches.Store(0)
	s.Inserts.Store(0)
	s.Deletes.Store(0)
	s.Scans.Store(0)
	s.ReverseScans.Store(0)
	s.Batches.Store(0)
	s.BatchedKeys.Store(0)
	s.NodeVisits.Store(0)
}

// Sub returns the counter deltas s − t.
func (s OpStats) Sub(t OpStats) OpStats {
	return OpStats{
		Searches:     s.Searches - t.Searches,
		Inserts:      s.Inserts - t.Inserts,
		Deletes:      s.Deletes - t.Deletes,
		Scans:        s.Scans - t.Scans,
		ReverseScans: s.ReverseScans - t.ReverseScans,
		Batches:      s.Batches - t.Batches,
		BatchedKeys:  s.BatchedKeys - t.BatchedKeys,
		NodeVisits:   s.NodeVisits - t.NodeVisits,
	}
}

// SpaceStats describes how a tree uses its pages — the inputs to the
// paper's space-overhead metric (Figure 16) plus utilization detail.
// Every variant reports it; for the memory-resident pB+-Tree the
// "pages" are its nodes.
type SpaceStats struct {
	Pages      int // total pages (the Figure 16 numerator)
	LeafPages  int
	NodePages  int // nonleaf pages (cache-first: aggressive-placement pages)
	OtherPages int // cache-first overflow pages
	Entries    int // entries stored in leaves
	// Utilization is Entries / (LeafPages * per-page entry capacity).
	Utilization float64
}

// ScavengeFill is the bulkload fill factor Scavenge rebuilds at: the
// paper's default insert-friendly load factor, leaving room so that the
// workload resuming after repair does not immediately split every leaf.
const ScavengeFill = 0.8

// ScavengeStats reports what a Scavenge salvaged.
type ScavengeStats struct {
	Entries    int // entries recovered into the rebuilt tree
	LeavesRead int // surviving leaves walked
	// Truncated is set when the leaf walk stopped before the end of the
	// chain (unreadable leaf, or a leaf failing sanity checks): entries
	// past that point are lost.
	Truncated bool
}

// RegisterMetrics publishes an index's operation counters with reg
// under the tree.* metric names. Several indexes may register with one
// registry; snapshots sum their counters.
func RegisterMetrics(reg *obs.Registry, ix Index) {
	reg.Counter("tree.searches", func() uint64 { return ix.Stats().Searches })
	reg.Counter("tree.inserts", func() uint64 { return ix.Stats().Inserts })
	reg.Counter("tree.deletes", func() uint64 { return ix.Stats().Deletes })
	reg.Counter("tree.scans", func() uint64 { return ix.Stats().Scans })
	reg.Counter("tree.reverse_scans", func() uint64 { return ix.Stats().ReverseScans })
	reg.Counter("tree.batches", func() uint64 { return ix.Stats().Batches })
	reg.Counter("tree.batched_keys", func() uint64 { return ix.Stats().BatchedKeys })
	reg.Counter("tree.node_visits", func() uint64 { return ix.Stats().NodeVisits })
	// Variants with an epoch-restart read protocol (cache-first) expose
	// the restart count; it belongs to the latch.* contention family.
	if er, ok := ix.(interface{ EpochRestarts() uint64 }); ok {
		reg.Counter("latch.epoch_restarts", er.EpochRestarts)
	}
	// Variants with gapped-capable leaves report how far each insert had
	// to shift keys (the node.* family measures in-node data movement)
	// and how often an insert landed in an adjacent gap for free.
	if gf, ok := ix.(interface{ GapFills() uint64 }); ok {
		reg.Counter("node.gap_fill", gf.GapFills)
	}
	if sh, ok := ix.(interface{ AttachShiftHistogram(*obs.Histogram) }); ok {
		sh.AttachShiftHistogram(reg.Histogram("node.insert_shift_keys"))
	}
}
