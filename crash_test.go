package fpbtree

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/treetest"
	"repro/internal/wal"
)

// crashOpener adapts the facade to the kill-and-replay harness: every
// open of the same directory uses the identical durable configuration.
// Automatic checkpoints are disabled so the log's rotation points are
// exactly the workload's explicit Checkpoint calls.
func crashOpener(v Variant) treetest.CrashOpener {
	return func(dir string) (treetest.CrashTree, error) {
		return New(WithVariant(v), WithPageSize(1<<10), WithBufferPages(256),
			WithStorePath(dir), WithStoreNoFsync(), WithCheckpointBytes(-1))
	}
}

// TestCrashRecovery runs the kill-and-replay protocol — truncate the
// WAL at every record boundary and mid-record, reopen, verify the
// exact durable snapshot — for every variant. More seeds run in CI via
// `fpcheck -crash`. The cut segment must hold page-delta records, and
// the workload must have written fresh pages straight to the page file,
// so that the cuts exercise both.
func TestCrashRecovery(t *testing.T) {
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, v := range []Variant{DiskFirst, CacheFirst, DiskOptimized, MicroIndex} {
		for _, seed := range seeds {
			t.Run(v.String(), func(t *testing.T) {
				var workload *Tree // the first tree opened runs the workload
				open := crashOpener(v)
				scratch := t.TempDir()
				rep, err := treetest.CrashReplay(func(dir string) (treetest.CrashTree, error) {
					tr, err := open(dir)
					if workload == nil && err == nil {
						workload = tr.(*Tree)
					}
					return tr, err
				}, scratch, seed)
				if err != nil {
					t.Fatalf("crash replay (seed %d): %v", seed, err)
				}
				if n := workload.MetricsSnapshot().Counters["filestore.direct_writes"]; n == 0 {
					t.Fatalf("crash replay (seed %d) wrote no page directly", seed)
				}
				if n := deltaRecords(t, filepath.Join(scratch, "work")); n == 0 {
					t.Fatalf("crash replay (seed %d): the cut segment holds no page-delta record", seed)
				}
				if rep.Cuts < 20 || rep.Points < 5 || rep.Replays == 0 || rep.Fallbacks == 0 {
					t.Fatalf("crash replay (seed %d) exercised too little: %v", seed, rep)
				}
				t.Logf("seed %d: %v", seed, rep)
			})
		}
	}
}

// deltaRecords counts the page-delta records in dir's newest WAL segment.
func deltaRecords(t *testing.T, dir string) int {
	t.Helper()
	segs, err := wal.SegmentFiles(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments in %s: %v %v", dir, segs, err)
	}
	raw, err := os.ReadFile(segs[len(segs)-1].Path)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for off := 0; ; {
		rec, size, err := wal.DecodeRecord(raw[off:])
		if err == io.EOF {
			return n
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Type == wal.RecPageDelta {
			n++
		}
		off += size
	}
}
