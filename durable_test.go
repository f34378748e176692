package fpbtree

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// durableTestOpts builds the standard small durable configuration the
// facade tests use: 1 KB pages so trees get multiple levels quickly,
// and no physical fsyncs (ordering and accounting are unchanged; the
// tests kill by dropping state, not by power loss).
func durableTestOpts(dir string, v Variant, extra ...Option) []Option {
	opts := []Option{
		WithVariant(v), WithPageSize(1 << 10), WithBufferPages(256),
		WithStorePath(dir), WithStoreNoFsync(),
	}
	return append(opts, extra...)
}

func scanAll(t *testing.T, tr *Tree) map[Key]TupleID {
	t.Helper()
	got := make(map[Key]TupleID)
	if _, err := tr.RangeScan(0, ^Key(0), func(k Key, tid TupleID) bool {
		got[k] = tid
		return true
	}); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return got
}

func assertState(t *testing.T, tr *Tree, want map[Key]TupleID, label string) {
	t.Helper()
	got := scanAll(t, tr)
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", label, len(got), len(want))
	}
	for k, tid := range want {
		if got[k] != tid {
			t.Fatalf("%s: key %d = %v, want %v", label, k, got[k], tid)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("%s: invariants: %v", label, err)
	}
	if n := tr.PinnedPages(); n != 0 {
		t.Fatalf("%s: %d pages still pinned", label, n)
	}
}

// TestDurableCommitKillRecover is the facade-level durability contract,
// run for every variant: a committed state survives a crash-shaped
// close exactly, an uncommitted tail is discarded, and a clean Close
// preserves everything.
func TestDurableCommitKillRecover(t *testing.T) {
	for _, v := range []Variant{DiskFirst, CacheFirst, DiskOptimized, MicroIndex} {
		t.Run(v.String(), func(t *testing.T) {
			dir := t.TempDir()
			tr, err := New(durableTestOpts(dir, v)...)
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Durable() {
				t.Fatal("tree not durable")
			}
			if _, ok := tr.RecoveredTag(); ok {
				t.Fatal("fresh store reported a recovered tag")
			}

			var load []Entry
			model := make(map[Key]TupleID)
			for i := 1; i <= 300; i++ {
				k := Key(i * 3)
				tid := TupleID(uint32(i)*16 + uint32(i%7))
				load = append(load, Entry{Key: k, TID: tid})
				model[k] = tid
			}
			if err := tr.Bulkload(load, 0.8); err != nil {
				t.Fatal(err)
			}
			// The bulkloaded pages are fresh, so this Commit writes them
			// straight to the page file; the next one logs what changed.
			if err := tr.Commit(6); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 40; i++ {
				k := Key(i*3 + 2)
				tid := TupleID(9000 + uint32(i))
				if err := tr.Insert(k, tid); err != nil {
					t.Fatal(err)
				}
				model[k] = tid
			}
			if err := tr.Commit(7); err != nil {
				t.Fatal(err)
			}
			// Uncommitted writes: must NOT survive the kill.
			for i := 0; i < 25; i++ {
				if err := tr.Insert(Key(i*3+1), TupleID(7777)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.Kill(); err != nil {
				t.Fatal(err)
			}

			tr2, err := New(durableTestOpts(dir, v)...)
			if err != nil {
				t.Fatalf("reopen after kill: %v", err)
			}
			if tag, ok := tr2.RecoveredTag(); !ok || tag != 7 {
				t.Fatalf("recovered tag %d ok=%v, want 7", tag, ok)
			}
			if info, _ := tr2.Recovery(); info.PagesReplayed == 0 {
				t.Fatalf("recovery replayed no pages: %+v", info)
			}
			assertState(t, tr2, model, "after kill+recover")

			// The recovered tree is live: write, commit, close cleanly.
			// Close preserves even the post-commit writes.
			if err := tr2.Insert(5, TupleID(55)); err != nil {
				t.Fatal(err)
			}
			if err := tr2.Commit(8); err != nil {
				t.Fatal(err)
			}
			model[5] = TupleID(55)
			if err := tr2.Insert(7, TupleID(77)); err != nil {
				t.Fatal(err)
			}
			model[7] = TupleID(77)
			if err := tr2.Close(); err != nil {
				t.Fatal(err)
			}

			tr3, err := New(durableTestOpts(dir, v)...)
			if err != nil {
				t.Fatalf("reopen after close: %v", err)
			}
			if tag, ok := tr3.RecoveredTag(); !ok || tag != 8 {
				t.Fatalf("post-close tag %d ok=%v, want 8", tag, ok)
			}
			if info, _ := tr3.Recovery(); info.PagesReplayed != 0 {
				t.Fatalf("clean close left replay work: %+v", info)
			}
			assertState(t, tr3, model, "after clean close")
			if err := tr3.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDurableWithChecksums stacks the integrity layer over the durable
// store: the stateless trailer survives a restart and the logical page
// size the tree sees is unchanged.
func TestDurableWithChecksums(t *testing.T) {
	dir := t.TempDir()
	tr, err := New(durableTestOpts(dir, DiskFirst, WithChecksums())...)
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[Key]TupleID)
	for i := 1; i <= 200; i++ {
		tid := TupleID(uint32(i))
		if err := tr.Insert(Key(i), tid); err != nil {
			t.Fatal(err)
		}
		model[Key(i)] = tid
	}
	if err := tr.Commit(1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Kill(); err != nil {
		t.Fatal(err)
	}
	tr2, err := New(durableTestOpts(dir, DiskFirst, WithChecksums())...)
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	assertState(t, tr2, model, "checksummed recover")
}

// TestDurableAutoCheckpoint: a tiny CheckpointBytes threshold makes
// Commit escalate, so the WAL stays bounded and recovery replays
// nothing.
func TestDurableAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	tr, err := New(durableTestOpts(dir, DiskOptimized, WithCheckpointBytes(1<<10))...)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 5; round++ {
		for i := 0; i < 100; i++ {
			if err := tr.Insert(Key(round*1000+i), TupleID(uint32(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Commit(uint64(round)); err != nil {
			t.Fatal(err)
		}
	}
	// A commit that logs a page leaves at least one 1 KB page in the
	// page file's lag, so it escalates: the active segment holds only the
	// latest checkpoint.
	if wb := tr.WALBytes(); wb > 4<<10 {
		t.Fatalf("WAL grew unbounded under auto-checkpoint: %d bytes", wb)
	}
	if err := tr.Kill(); err != nil {
		t.Fatal(err)
	}
	tr2, err := New(durableTestOpts(dir, DiskOptimized)...)
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Close()
	if tag, ok := tr2.RecoveredTag(); !ok || tag != 5 {
		t.Fatalf("recovered tag %d ok=%v, want 5", tag, ok)
	}
	if info, _ := tr2.Recovery(); info.PagesReplayed != 0 {
		t.Fatalf("checkpointed store still replayed %d pages", info.PagesReplayed)
	}
}

// TestDurableGroupCommitCoalesces: concurrent Tree.Commit callers share
// fsyncs. Only the flush and the commit-record append run under the
// tree lock; the fsync runs outside it, so several commits can be
// pending at once and the group-commit leader batches them (a lock held
// across the sync would serialize commits and reduce the linger to pure
// added latency).
func TestDurableGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	tr, err := New(durableTestOpts(dir, DiskOptimized,
		WithConcurrency(4), WithGroupCommit(4, 2*time.Millisecond), WithCheckpointBytes(-1))...)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i := 1; i <= 100; i++ {
		if err := tr.Insert(Key(i), TupleID(uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	const workers, per = 4, 25
	var tags atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := tr.Commit(tags.Add(1)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	snap := tr.MetricsSnapshot()
	commits, fsyncs := snap.Counters["wal.commits"], snap.Counters["wal.fsyncs"]
	if commits < workers*per {
		t.Fatalf("only %d commits recorded", commits)
	}
	if fsyncs >= commits {
		t.Fatalf("no coalescing: %d fsyncs for %d commits", fsyncs, commits)
	}
}

// TestDurableConfigGuards: mismatched reopens fail loudly, durability
// calls on non-durable trees are typed, and the error re-exports
// classify.
func TestDurableConfigGuards(t *testing.T) {
	dir := t.TempDir()
	tr, err := New(durableTestOpts(dir, DiskFirst)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(1, TupleID(1)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	// Variant mismatch is refused at open.
	if _, err := New(durableTestOpts(dir, CacheFirst)...); err == nil {
		t.Fatal("variant mismatch accepted")
	}
	// Physical page-size mismatch is refused by the page-file header.
	if _, err := New(WithVariant(DiskFirst), WithPageSize(2<<10), WithBufferPages(256),
		WithStorePath(dir), WithStoreNoFsync()); err == nil {
		t.Fatal("page-size mismatch accepted")
	}
	// StorePath and Disks are mutually exclusive.
	if _, err := New(WithStorePath(t.TempDir()), WithDisks(4)); err == nil {
		t.Fatal("StorePath+Disks accepted")
	}

	mem, err := New(WithVariant(DiskFirst))
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Commit(1); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Commit on memory tree: %v", err)
	}
	if err := mem.Checkpoint(1); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Checkpoint on memory tree: %v", err)
	}
	if err := mem.Close(); err != nil {
		t.Fatalf("Close on memory tree should be a no-op: %v", err)
	}

	// The re-exported sentinels classify wrapped storage errors.
	if !errors.Is(fmt.Errorf("x: %w", ErrWALCorrupt), ErrWALCorrupt) ||
		!errors.Is(fmt.Errorf("x: %w", ErrShortWrite), ErrShortWrite) {
		t.Fatal("error re-exports do not classify")
	}
}

// TestDurableCommitLogsChangedBytes: a one-insert Commit on a tree with
// the benchmark's page shape (16 KB, checksum trailer) logs the bytes
// the insert changed — a delta record, not a 16,448-byte page image.
// The fractal layouts keep an insert inside one in-page node.
func TestDurableCommitLogsChangedBytes(t *testing.T) {
	for _, v := range []Variant{DiskFirst, CacheFirst} {
		t.Run(v.String(), func(t *testing.T) {
			tr, err := New(WithVariant(v), WithBufferPages(512), WithChecksums(),
				WithStorePath(t.TempDir()), WithStoreNoFsync())
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			load := make([]Entry, 20000)
			for i := range load {
				load[i] = Entry{Key: Key(4 * i), TID: TupleID(uint32(i))}
			}
			if err := tr.Bulkload(load, 0.7); err != nil {
				t.Fatal(err)
			}
			if err := tr.Checkpoint(1); err != nil {
				t.Fatal(err)
			}
			before := tr.MetricsSnapshot().Counters
			if err := tr.Insert(4*10000+1, 1); err != nil {
				t.Fatal(err)
			}
			if err := tr.Commit(2); err != nil {
				t.Fatal(err)
			}
			after := tr.MetricsSnapshot().Counters
			delta := func(name string) uint64 { return after[name] - before[name] }
			if delta("wal.page_deltas") == 0 || delta("wal.page_images") != 0 {
				t.Fatalf("logged %d deltas and %d images, want deltas only",
					delta("wal.page_deltas"), delta("wal.page_images"))
			}
			if b := delta("wal.bytes_written"); b >= 1<<10 {
				t.Fatalf("one-insert Commit appended %d bytes to the WAL, want < 1 KB", b)
			}
		})
	}
}

// TestDurableEscalatedCommitSyncsOnce: a Commit that escalates to a
// checkpoint appends one commit record and fsyncs the log once for it.
// The rotation then fsyncs the new segment and its directory entry,
// and the directory again after pruning the oldest segment.
func TestDurableEscalatedCommitSyncsOnce(t *testing.T) {
	tr, err := New(durableTestOpts(t.TempDir(), DiskFirst, WithCheckpointBytes(1))...)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for i := 1; i <= 200; i++ {
		if err := tr.Insert(Key(i), TupleID(uint32(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Checkpoint(1); err != nil { // two segments from here on
		t.Fatal(err)
	}
	if err := tr.Insert(1000, 1); err != nil {
		t.Fatal(err)
	}
	before := tr.MetricsSnapshot().Counters
	if err := tr.Commit(2); err != nil {
		t.Fatal(err)
	}
	after := tr.MetricsSnapshot().Counters
	delta := func(name string) uint64 { return after[name] - before[name] }
	if delta("wal.rotations") != 1 {
		t.Fatalf("Commit did not escalate: %d rotations", delta("wal.rotations"))
	}
	if delta("wal.commits") != 1 || delta("wal.fsyncs") != 4 {
		t.Fatalf("escalated Commit: %d commit records and %d WAL fsyncs, want 1 and 4 (commit, segment, directory, prune)",
			delta("wal.commits"), delta("wal.fsyncs"))
	}
}

// TestDurableFreshPageWindows: pages no durable state references yet
// are written straight to the page file. A kill after a flush that
// wrote such pages, but before the Commit, recovers the previous tag
// (the direct writes are unreferenced garbage, and their pids are
// reused); a kill after the Commit recovers them.
func TestDurableFreshPageWindows(t *testing.T) {
	for _, v := range []Variant{DiskFirst, CacheFirst, DiskOptimized, MicroIndex} {
		t.Run(v.String(), func(t *testing.T) {
			dir := t.TempDir()
			open := func() *Tree {
				t.Helper()
				tr, err := New(durableTestOpts(dir, v)...)
				if err != nil {
					t.Fatal(err)
				}
				return tr
			}
			model := map[Key]TupleID{}
			insert := func(tr *Tree, m map[Key]TupleID, from, to int) {
				t.Helper()
				for i := from; i < to; i++ {
					if err := tr.Insert(Key(i*7), TupleID(uint32(i))); err != nil {
						t.Fatal(err)
					}
					m[Key(i*7)] = TupleID(uint32(i))
				}
			}
			directWrites := func(tr *Tree) uint64 { return tr.MetricsSnapshot().Counters["filestore.direct_writes"] }

			tr := open()
			insert(tr, model, 0, 300)
			if err := tr.Commit(1); err != nil {
				t.Fatal(err)
			}
			// Splits allocate fresh pages; the flush writes them directly.
			uncommitted := map[Key]TupleID{}
			insert(tr, uncommitted, 300, 900)
			n := directWrites(tr)
			if err := tr.DropBufferPool(); err != nil {
				t.Fatal(err)
			}
			if directWrites(tr) == n {
				t.Fatal("the flush wrote no fresh page directly")
			}
			tr.Kill()

			tr = open()
			if tag, ok := tr.RecoveredTag(); !ok || tag != 1 {
				t.Fatalf("kill before Commit recovered tag %d ok=%v, want 1", tag, ok)
			}
			assertState(t, tr, model, "kill after the flush, before the Commit")
			insert(tr, model, 300, 900)
			if err := tr.Commit(2); err != nil {
				t.Fatal(err)
			}
			tr.Kill()

			tr = open()
			defer tr.Close()
			if tag, ok := tr.RecoveredTag(); !ok || tag != 2 {
				t.Fatalf("kill after Commit recovered tag %d ok=%v, want 2", tag, ok)
			}
			assertState(t, tr, model, "kill after the Commit")
		})
	}
}
