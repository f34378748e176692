package filestore

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/wal"
)

func mustOpen(t *testing.T, cfg Config) (*Durable, wal.RecoveryResult) {
	t.Helper()
	d, res, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, res
}

func mustRead(t *testing.T, d *Durable, pid uint32) []byte {
	t.Helper()
	got := make([]byte, d.PageSize())
	if _, err := d.ReadPage(pid, got, 0); err != nil {
		t.Fatal(err)
	}
	return got
}

// copyDir clones a store directory (page file and WAL segments).
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTornCheckpointRepaired: a crash can leave a checkpoint's page
// writes torn — one page half new and half old (fault.Store's torn
// model), another not written at all. Every byte in which a page differs
// from its checkpoint base is covered by some delta in the segment that
// anchors recovery, and every uncovered byte is equal in the old and new
// images, so replay repairs any mix. Checked on the anchored generation
// (killed between the page-file writes and the rotation) and on the
// fallback one (the checkpoint finished, but the newer segment's leading
// checkpoint record is torn).
func TestTornCheckpointRepaired(t *testing.T) {
	const ps = 1024 + 64
	rng := rand.New(rand.NewSource(3))
	dir := t.TempDir()
	cfg := Config{Dir: dir, PageSize: ps, WAL: testCfg}
	d, _ := mustOpen(t, cfg)

	// Checkpoint base: six pages written straight to the page file.
	cur := map[uint32][]byte{}
	for pid := uint32(1); pid <= 6; pid++ {
		cur[pid] = make([]byte, ps)
		rng.Read(cur[pid])
		if _, err := d.WritePage(pid, cur[pid], 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(1, nil); err != nil {
		t.Fatal(err)
	}
	old := map[uint32][]byte{}
	for pid, img := range cur {
		old[pid] = append([]byte(nil), img...)
	}
	// Committed history since: small changes anywhere in the page,
	// trailer included, logged as deltas.
	before := d.Log().Stats().Appends
	for tag := uint64(2); tag <= 6; tag++ {
		for pid, img := range cur {
			if rng.Intn(3) == 0 {
				continue
			}
			o := rng.Intn(ps - 40)
			rng.Read(img[o : o+1+rng.Intn(40)])
			rng.Read(img[ps-4:])
			if _, err := d.WritePage(pid, img, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Commit(tag, nil); err != nil {
			t.Fatal(err)
		}
	}
	if d.Log().Stats().Appends-before < 10 {
		t.Fatal("history logged too few page records")
	}

	pids := make([]uint32, 0, len(cur))
	for pid := range cur {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	// tear leaves the checkpoint's page writes as a crash would: the
	// first page torn half new and half old, the second still old, the
	// rest written.
	tear := func(dir string) {
		f, err := os.OpenFile(filepath.Join(dir, "pages.db"), os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		for i, pid := range pids {
			img := cur[pid]
			switch i {
			case 0:
				img = append(append([]byte(nil), img[:ps/2]...), old[pid][ps/2:]...)
			case 1:
				img = old[pid]
			}
			if _, err := f.WriteAt(img, headerBlock+int64(pid)*ps); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(dir string, wantTag uint64) wal.RecoveryResult {
		t.Helper()
		d2, res := mustOpen(t, Config{Dir: dir, PageSize: ps, WAL: testCfg})
		defer d2.Close()
		if res.Tag != wantTag {
			t.Fatalf("recovered tag %d, want %d", res.Tag, wantTag)
		}
		for _, pid := range pids {
			if !bytes.Equal(mustRead(t, d2, pid), cur[pid]) {
				t.Fatalf("page %d not byte-identical after recovery", pid)
			}
		}
		return res
	}

	anchored := t.TempDir()
	copyDir(t, dir, anchored)
	tear(anchored)
	check(anchored, 6)

	if err := d.Checkpoint(7, nil); err != nil {
		t.Fatal(err)
	}
	d.Close()
	fallback := t.TempDir()
	copyDir(t, dir, fallback)
	tear(fallback)
	segs, err := wal.SegmentFiles(fallback)
	if err != nil || len(segs) != 2 {
		t.Fatalf("want 2 segments, got %v (%v)", segs, err)
	}
	if err := os.Truncate(segs[1].Path, 10); err != nil {
		t.Fatal(err)
	}
	if res := check(fallback, 7); res.BaseSeq != segs[0].Seq || res.PagesReplayed == 0 {
		t.Fatalf("did not replay the fallback generation: %+v", res)
	}
}

// TestDirectWriteSyncedBeforeCommit records page-file fsyncs and the
// log position at each one: whenever a page went straight to the page
// file, an fsync must land before the next commit or checkpoint record
// is appended — a delta in that commit may be built on the direct
// write. A commit with no direct write before it pays no page-file
// fsync.
func TestDirectWriteSyncedBeforeCommit(t *testing.T) {
	type event struct {
		kind string // "direct", "sync" or "commit"
		lsn  uint64 // last LSN at a sync; the record's LSN at a commit
	}
	var d *Durable
	var events []event
	syncHook = func(*FileStore) {
		if d != nil {
			events = append(events, event{"sync", d.Log().LastLSN()})
		}
	}
	t.Cleanup(func() { syncHook = nil })
	d, _ = mustOpen(t, Config{Dir: t.TempDir(), PageSize: 256, WAL: testCfg})
	defer d.Close()

	pg := func(fill byte) []byte { return bytes.Repeat([]byte{fill}, 256) }
	direct := func(pid uint32, img []byte) {
		n := d.directWrites.Load()
		if _, err := d.WritePage(pid, img, 0); err != nil {
			t.Fatal(err)
		}
		if d.directWrites.Load() != n+1 {
			t.Fatalf("page %d was not written directly", pid)
		}
		events = append(events, event{"direct", 0})
	}
	logged := func(pid uint32, img []byte) {
		if _, err := d.WritePage(pid, img, 0); err != nil {
			t.Fatal(err)
		}
	}
	commit := func(tag uint64) {
		lsn, err := d.AppendCommit(tag, nil)
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, event{"commit", lsn})
		if err := d.Sync(lsn); err != nil {
			t.Fatal(err)
		}
	}

	direct(1, pg(1))
	direct(2, pg(2))
	commit(1)
	logged(1, append(pg(1)[:200], pg(9)[:56]...))
	nsync := len(events)
	commit(2)
	if events[nsync].kind != "commit" {
		t.Fatalf("a commit after no direct write fsynced the page file: %v", events[nsync:])
	}
	direct(3, pg(3))
	logged(3, append(pg(3)[:100], pg(8)[:156]...)) // a delta on the direct write
	commit(3)
	direct(4, pg(4))
	lsn := d.Log().LastLSN()
	if err := d.Checkpoint(4, nil); err != nil {
		t.Fatal(err)
	}
	events = append(events, event{"commit", lsn + 1})

	for i, e := range events {
		if e.kind != "direct" {
			continue
		}
		var next event
		for _, f := range events[i+1:] {
			if f.kind == "commit" {
				next = f
				break
			}
		}
		synced := false
		for _, f := range events[i+1:] {
			if f.kind == "sync" && f.lsn < next.lsn {
				synced = true
			}
		}
		if !synced {
			t.Fatalf("direct write at event %d reached commit LSN %d with no page-file fsync before it: %v", i, next.lsn, events)
		}
	}
}

// TestPowerLossKeepsDeltaBases simulates power loss: the page file
// falls back to its bytes at the last fsync (a test hook snapshots it at
// each one), dropping every unsynced write. Direct writes that a commit
// covers survive it. And when a kill leaves a direct write in the OS
// cache only, and the next incarnation reuses the pid — now below the
// file's end, so it logs a delta against that write — the commit's base
// is still durable, because Open fsyncs the page file before replay.
func TestPowerLossKeepsDeltaBases(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, PageSize: 256, WAL: testCfg}
	path := filepath.Join(dir, "pages.db")
	var synced []byte
	syncHook = func(s *FileStore) {
		if s.Path() == path {
			var err error
			if synced, err = os.ReadFile(path); err != nil {
				t.Error(err)
			}
		}
	}
	t.Cleanup(func() { syncHook = nil })
	powerLoss := func() {
		if err := os.WriteFile(path, synced, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pg := func(fill byte) []byte { return bytes.Repeat([]byte{fill}, 256) }

	d, _ := mustOpen(t, cfg)
	d.WritePage(1, pg(1), 0)
	d.WritePage(2, pg(2), 0)
	if err := d.Commit(1, nil); err != nil {
		t.Fatal(err)
	}
	d.WritePage(3, pg(3), 0)                               // direct, never synced
	d.WritePage(1, append(pg(1)[:128], pg(7)[:128]...), 0) // logged, never committed
	if d.directWrites.Load() != 3 {
		t.Fatalf("%d direct writes, want 3", d.directWrites.Load())
	}
	d.Close()
	powerLoss()

	d, res := mustOpen(t, cfg)
	if res.Tag != 1 || !bytes.Equal(mustRead(t, d, 1), pg(1)) || !bytes.Equal(mustRead(t, d, 2), pg(2)) {
		t.Fatalf("committed direct writes lost to the power loss: %+v", res)
	}
	// Kill with a direct write of page 3 in the OS cache only.
	d.WritePage(3, pg(3), 0)
	if d.directWrites.Load() != 1 {
		t.Fatal("page 3 was not written directly")
	}
	d.Close()

	d, _ = mustOpen(t, cfg)
	x := pg(3)
	copy(x[10:20], pg(4))
	d.WritePage(3, x, 0)
	if d.directWrites.Load() != 0 || d.DirtyPages() != 1 || d.Log().Stats().Appends != 2 {
		t.Fatal("the reused page 3 was not logged as a delta")
	}
	if err := d.Commit(2, nil); err != nil {
		t.Fatal(err)
	}
	d.Close()
	powerLoss()

	d, res = mustOpen(t, cfg)
	defer d.Close()
	if res.Tag != 2 || !bytes.Equal(mustRead(t, d, 3), x) {
		t.Fatalf("delta replayed onto a base the power loss dropped: %+v", res)
	}
}
