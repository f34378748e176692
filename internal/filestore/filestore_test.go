package filestore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/obs"
	"repro/internal/wal"
)

var testCfg = wal.Options{NoFsync: true}

func TestFileStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	fs, err := OpenFileStore(path, 512, true)
	if err != nil {
		t.Fatal(err)
	}
	page := bytes.Repeat([]byte{0xCD}, 512)
	if _, err := fs.WritePage(3, page, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	if _, err := fs.ReadPage(3, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page) {
		t.Fatal("read back mismatch")
	}
	// Fresh extent (never written, and far past EOF): zeros, no error.
	if _, err := fs.ReadPage(2, got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 512)) {
		t.Fatal("fresh page not zero")
	}
	if _, err := fs.ReadPage(1000, got, 0); err != nil {
		t.Fatal(err)
	}
	// PeekPage sees the media image.
	if !fs.PeekPage(3, got) || !bytes.Equal(got, page) {
		t.Fatal("peek mismatch")
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs.Close()

	// Reopen with the same page size: header accepted, data intact.
	fs2, err := OpenFileStore(path, 512, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs2.ReadPage(3, got, 0); err != nil || !bytes.Equal(got, page) {
		t.Fatalf("reopen read: %v", err)
	}
	fs2.Close()

	// Page-size mismatch is refused before any page is interpreted.
	if _, err := OpenFileStore(path, 1024, true); err == nil {
		t.Fatal("page-size mismatch accepted")
	}
	// Arbitrary files are not page files.
	junk := filepath.Join(t.TempDir(), "junk")
	os.WriteFile(junk, []byte("not a page file at all"), 0o644)
	if _, err := OpenFileStore(junk, 512, true); err == nil {
		t.Fatal("junk file accepted")
	}
}

func TestFileStoreTypedErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	fs, err := OpenFileStore(path, 256, true)
	if err != nil {
		t.Fatal(err)
	}
	fs.f.Close() // yank the fd: subsequent I/O fails hard
	var perr *buffer.PageError
	_, err = fs.WritePage(1, make([]byte, 256), 0)
	if !errors.As(err, &perr) || !errors.Is(err, buffer.ErrShortWrite) {
		t.Fatalf("failed write not typed ErrShortWrite via PageError: %v", err)
	}
	if perr.PID != 1 || perr.Op != "write" {
		t.Fatalf("wrong PageError context: %+v", perr)
	}
	_, err = fs.ReadPage(1, make([]byte, 256), 0)
	if !errors.Is(err, buffer.ErrPermanentIO) {
		t.Fatalf("failed read not typed ErrPermanentIO: %v", err)
	}
}

func TestDurableCommitCheckpointRecover(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, PageSize: 256, WAL: testCfg}
	d, res, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.HadState {
		t.Fatal("fresh dir reported state")
	}

	pg := func(fill byte) []byte { return bytes.Repeat([]byte{fill}, 256) }
	// Fresh pages go straight to the page file.
	d.WritePage(1, pg(0xA1), 0)
	d.WritePage(2, pg(0xB2), 0)
	if err := d.Commit(9, []byte("nine")); err != nil {
		t.Fatal(err)
	}
	// A committed change, then an uncommitted overwrite: only the commit
	// survives a crash-shaped close.
	b3 := pg(0xB2)
	copy(b3[10:20], pg(0xB3))
	d.WritePage(2, b3, 0)
	if err := d.Commit(10, []byte("ten")); err != nil {
		t.Fatal(err)
	}
	d.WritePage(1, pg(0xEE), 0)
	// The WAL rule, structurally: logged pages have not reached the page
	// file, which holds only the two direct writes.
	raw, _ := os.ReadFile(filepath.Join(dir, "pages.db"))
	if int64(len(raw)) != headerBlock+3*256 ||
		!bytes.Equal(raw[headerBlock+256:headerBlock+512], pg(0xA1)) ||
		!bytes.Equal(raw[headerBlock+512:], pg(0xB2)) {
		t.Fatalf("page file advanced before checkpoint: %d bytes", len(raw))
	}
	d.Close()

	d2, res2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Tag != 10 || string(res2.Meta) != "ten" {
		t.Fatalf("recovered wrong point: %+v", res2)
	}
	if res2.PagesReplayed != 1 {
		t.Fatalf("replayed %d page records, want 1 (page 2's delta)", res2.PagesReplayed)
	}
	got := make([]byte, 256)
	d2.ReadPage(1, got, 0)
	if !bytes.Equal(got, pg(0xA1)) {
		t.Fatal("uncommitted overwrite survived recovery")
	}
	d2.ReadPage(2, got, 0)
	if !bytes.Equal(got, b3) {
		t.Fatal("committed delta lost")
	}

	// Checkpoint advances the page file and clears the table; state
	// survives another reopen with nothing left to replay.
	d2.WritePage(1, pg(0xA4), 0)
	d2.WritePage(3, pg(0xC3), 0)
	if d2.DirtyPages() != 1 {
		t.Fatalf("dirty table holds %d pages, want 1 (page 3 is fresh)", d2.DirtyPages())
	}
	if err := d2.Checkpoint(11, []byte("eleven")); err != nil {
		t.Fatal(err)
	}
	if d2.DirtyPages() != 0 {
		t.Fatalf("dirty table not cleared: %d", d2.DirtyPages())
	}
	d2.Close()

	d3, res3, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if res3.Tag != 11 || res3.PagesReplayed != 0 {
		t.Fatalf("post-checkpoint recovery: %+v", res3)
	}
	for pid, want := range map[uint32][]byte{1: pg(0xA4), 2: b3, 3: pg(0xC3)} {
		d3.ReadPage(pid, got, 0)
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d lost after checkpointed reopen", pid)
		}
	}
}

func TestDurableMetrics(t *testing.T) {
	d, _, err := Open(Config{Dir: t.TempDir(), PageSize: 256, WAL: testCfg})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	reg := obs.NewRegistry()
	d.RegisterMetrics(reg)
	d.WritePage(1, make([]byte, 256), 0) // fresh: a direct write
	d.Commit(1, nil)
	d.WritePage(1, append(make([]byte, 255), 1), 0) // one byte: a delta
	d.WritePage(1, bytes.Repeat([]byte{7}, 256), 0) // every byte: an image
	d.Checkpoint(2, nil)
	snap := reg.Snapshot()
	for _, name := range []string{
		"wal.appends", "wal.commits", "wal.fsyncs", "wal.bytes_written", "wal.rotations",
		"wal.page_images", "wal.page_deltas",
		"filestore.writes", "filestore.fsyncs", "filestore.bytes_written", "filestore.direct_writes",
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %s is zero after a checkpoint", name)
		}
		if !obs.ValidMetricName(name) {
			t.Errorf("counter %s outside the stable-name alphabet", name)
		}
	}
}

func TestMetaRoundTrip(t *testing.T) {
	m := Meta{
		Variant:  3,
		PageSize: 4096,
		Tree:     idx.DurableMeta{RootPID: 7, RootOff: 128, Height: 2, LeftPID: 4, LeftOff: 64},
		NextPID:  99,
		FreePIDs: []uint32{5, 12, 13},
	}
	got, err := DecodeMeta(EncodeMeta(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Variant != m.Variant || got.PageSize != m.PageSize || got.Tree != m.Tree ||
		got.NextPID != m.NextPID || len(got.FreePIDs) != 3 || got.FreePIDs[1] != 12 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	// Damage is typed ErrWALCorrupt (the blob rode a CRC-framed record,
	// so a malformed blob means the log itself lied).
	enc := EncodeMeta(m)
	for _, mut := range [][]byte{enc[:5], append(append([]byte(nil), enc...), 1), {}} {
		if _, err := DecodeMeta(mut); !errors.Is(err, buffer.ErrWALCorrupt) {
			t.Errorf("malformed blob (%d bytes) not typed: %v", len(mut), err)
		}
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 9
	if _, err := DecodeMeta(bad); !errors.Is(err, buffer.ErrWALCorrupt) {
		t.Errorf("bad version not typed: %v", err)
	}
}
