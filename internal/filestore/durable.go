package filestore

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Config configures a durable page store directory.
type Config struct {
	// Dir holds the page file (pages.db) and the WAL segments.
	Dir string
	// PageSize is the physical page size (including any checksum
	// trailer riding above this layer).
	PageSize int
	// WAL tunes the commit pipeline (group commit knobs, the shared
	// NoFsync harness switch).
	WAL wal.Options
}

// Durable is the buffer.Store that enforces the WAL rule structurally.
// WritePage redo-logs what changed — a page-delta record of the byte
// ranges that differ from the image the log last holds for the page,
// or a full image when those ranges would exceed half a page — and
// keeps the page in an in-memory dirty table that ReadPage consults
// first. Only two things write the page file:
//
//   - Checkpoint, after the log is fsynced, writes the dirty table;
//   - a write-back of a fresh page — one the page file has never held
//     and the dirty table does not hold — goes straight to the page
//     file. No durable state references a fresh pid, so nothing needs
//     its redo, and the page is written once instead of logged and then
//     checkpointed.
//
// The page file therefore holds the last checkpoint's state plus pages
// no durable state references yet, and recovery is a pure redo replay
// of the newer committed log records on top of it. Every delta is built
// on a base that is durable before any commit that makes the delta
// redo state: a checkpointed or replayed page is fsynced before the log
// rotates or restarts, a commit or checkpoint record that follows a
// direct write is appended only after a page-file fsync, and Open
// fsyncs the page file before replay (a killed process can leave direct
// writes unsynced in the OS cache, and their pids can be reused).
//
// Commit is the durability point: it logs a commit record carrying the
// caller's opaque metadata (tree root, allocator state) and group-
// commits the log. Pages evicted by the pool between commits land in
// the log and the dirty table like any other write — an uncommitted
// eviction is discarded by recovery along with the rest of the
// uncommitted tail.
type Durable struct {
	mu       sync.Mutex
	fs       *FileStore
	log      *wal.Log
	table    map[uint32][]byte
	spare    [][]byte // the last checkpoint's table buffers, for reuse
	unsynced bool     // the page file was written since its last fsync
	delta    []byte   // delta payload being encoded

	// The page file has never held a pid at or past freshFrom — its end
	// at open or at the last checkpoint — unless written records it. A
	// moving end would not do: the pool flushes in frame order, not pid
	// order, so one high pid would make every lower new page look old.
	freshFrom uint32
	written   map[uint32]bool

	replayedPages uint64 // page records applied by recovery at open
	directWrites  atomic.Uint64
}

// Open opens or creates the durable store in cfg.Dir, running redo
// recovery first: committed page records past the last checkpoint are
// replayed into the page file, the file is synced, and the log is
// restarted on a fresh checkpoint segment anchoring the recovered
// durable point. The returned RecoveryResult carries that point's tag
// and metadata blob for the caller to rebuild its tree from.
func Open(cfg Config) (*Durable, wal.RecoveryResult, error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, wal.RecoveryResult{}, err
	}
	fs, err := OpenFileStore(filepath.Join(cfg.Dir, "pages.db"), cfg.PageSize, cfg.WAL.NoFsync)
	if err != nil {
		return nil, wal.RecoveryResult{}, err
	}
	// Replay builds on the page file's bytes, and so does every delta
	// this incarnation logs for a page it finds there: make them durable
	// first, whatever an earlier incarnation left unsynced.
	if err := fs.Sync(); err != nil {
		fs.Close()
		return nil, wal.RecoveryResult{}, err
	}
	page := make([]byte, cfg.PageSize)
	res, err := wal.Recover(cfg.Dir, func(kind wal.RecordType, pid uint32, payload []byte) error {
		img := payload
		if kind == wal.RecPageDelta {
			if _, err := fs.ReadPage(pid, page, 0); err != nil {
				return err
			}
			if err := wal.ApplyDelta(page, payload); err != nil {
				return fmt.Errorf("filestore: page %d: %w", pid, err)
			}
			img = page
		} else if len(img) != cfg.PageSize {
			return fmt.Errorf("filestore: WAL image for page %d is %d bytes, store uses %d",
				pid, len(img), cfg.PageSize)
		}
		_, werr := fs.WritePage(pid, img, 0)
		return werr
	})
	if err != nil {
		fs.Close()
		return nil, res, err
	}
	if res.PagesReplayed > 0 {
		if err := fs.Sync(); err != nil {
			fs.Close()
			return nil, res, err
		}
	}
	end, err := fs.Pages()
	if err != nil {
		fs.Close()
		return nil, res, err
	}
	log, err := wal.Start(cfg.Dir, res, cfg.WAL)
	if err != nil {
		fs.Close()
		return nil, res, err
	}
	d := &Durable{
		fs:            fs,
		log:           log,
		table:         make(map[uint32][]byte),
		freshFrom:     end,
		written:       make(map[uint32]bool),
		replayedPages: uint64(res.PagesReplayed),
	}
	return d, res, nil
}

// PageSize implements buffer.Store.
func (d *Durable) PageSize() int { return d.fs.PageSize() }

// WritePage implements buffer.Store. A fresh page is written straight
// to the page file. Any other page is diffed against the image the log
// last holds for it — its dirty-table copy, or the page file's bytes —
// and the difference is logged: nothing when the page is unchanged, a
// delta record, or a full image when the delta would exceed half a
// page. Base lookup, log append and table update happen under one hold
// of d.mu, so each page's chain of bases follows log order.
func (d *Durable) WritePage(pid uint32, src []byte, now uint64) (uint64, error) {
	ps := d.fs.PageSize()
	img := src[:ps]
	d.mu.Lock()
	defer d.mu.Unlock()
	buf, dirty := d.table[pid]
	if !dirty {
		if pid >= d.freshFrom && !d.written[pid] {
			if _, err := d.fs.WritePage(pid, img, now); err != nil {
				return now, err
			}
			d.written[pid] = true
			d.unsynced = true
			d.directWrites.Add(1)
			return now, nil
		}
		// The page file's image is the base, and the buffer it is read
		// into becomes the page's dirty-table copy once the change is
		// logged.
		if n := len(d.spare); n > 0 {
			buf, d.spare = d.spare[n-1], d.spare[:n-1]
		} else {
			buf = make([]byte, ps)
		}
		if _, err := d.fs.ReadPage(pid, buf, now); err != nil {
			return now, err
		}
	}
	// Once logged, the change is applied to the table copy the same way
	// replay applies it: a delta touches only the bytes it carries.
	delta, ok := wal.EncodeDelta(d.delta[:0], buf, img, ps/2)
	d.delta = delta
	var err error
	switch {
	case !ok:
		if _, err = d.log.AppendPage(pid, img); err == nil {
			copy(buf, img)
		}
	case len(delta) > 0:
		if _, err = d.log.AppendPageDelta(pid, delta); err == nil {
			err = wal.ApplyDelta(buf, delta)
		}
	}
	if err != nil {
		return now, &buffer.PageError{PID: pid, Op: "write", Err: err}
	}
	d.table[pid] = buf
	return now, nil
}

// ReadPage implements buffer.Store: dirty table first, page file
// otherwise.
func (d *Durable) ReadPage(pid uint32, dst []byte, now uint64) (uint64, error) {
	d.mu.Lock()
	if buf, ok := d.table[pid]; ok {
		copy(dst[:d.fs.PageSize()], buf)
		d.mu.Unlock()
		return now, nil
	}
	d.mu.Unlock()
	return d.fs.ReadPage(pid, dst, now)
}

// PeekPage forwards the fault layer's media peek: the dirty table is
// the page's current "media" until a checkpoint writes it back.
func (d *Durable) PeekPage(pid uint32, dst []byte) bool {
	d.mu.Lock()
	if buf, ok := d.table[pid]; ok {
		copy(dst[:d.fs.PageSize()], buf)
		d.mu.Unlock()
		return true
	}
	d.mu.Unlock()
	return d.fs.PeekPage(pid, dst)
}

// Commit makes everything written so far durable: one commit record
// carrying (tag, meta), then a group-commit fsync.
func (d *Durable) Commit(tag uint64, meta []byte) error {
	lsn, err := d.AppendCommit(tag, meta)
	if err != nil {
		return err
	}
	return d.Sync(lsn)
}

// AppendCommit logs the commit record carrying (tag, meta) without
// forcing it to disk; pair with Sync on the returned LSN. The split
// exists so callers holding a coarse lock around the append (the
// facade's tree lock) can release it before the fsync — concurrent
// committers then coalesce onto one group-commit fsync, which a lock
// held across Commit would forbid.
func (d *Durable) AppendCommit(tag uint64, meta []byte) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.appendCommitLocked(tag, meta)
}

// appendCommitLocked fsyncs the page file first when it was written
// since its last fsync: a delta logged before this record may be built
// on a directly written page, which must be durable before the record
// that makes the delta redo state. Caller holds d.mu.
func (d *Durable) appendCommitLocked(tag uint64, meta []byte) (uint64, error) {
	if err := d.syncPagesLocked(); err != nil {
		return 0, err
	}
	return d.log.AppendCommit(tag, meta)
}

// syncPagesLocked fsyncs the page file if it was written since its last
// fsync. Caller holds d.mu.
func (d *Durable) syncPagesLocked() error {
	if !d.unsynced {
		return nil
	}
	if err := d.fs.Sync(); err != nil {
		return err
	}
	d.unsynced = false
	return nil
}

// Sync blocks until the log is durable at least through lsn (group
// commit: concurrent callers share fsyncs).
func (d *Durable) Sync(lsn uint64) error { return d.log.Sync(lsn) }

// Checkpoint advances the page file to the current committed state and
// rotates the log. Ordering is the whole algorithm:
//
//  1. commit (tag, meta) and fsync the log — the state is now durable
//     via redo, whatever happens below (the page file is fsynced before
//     the commit record if it holds unsynced direct writes);
//  2. write every dirty page to the page file and fsync it — the file
//     now holds the checkpointed state;
//  3. rotate: fsync a fresh segment whose leading checkpoint record
//     anchors (tag, meta), keep the sealed segment as the fallback
//     generation, delete older ones;
//  4. clear the dirty table.
//
// A crash between any two steps recovers to (tag, meta): before the
// rotation the old segment replays onto the (partially advanced, maybe
// torn) page file — its records cover every byte in which a page
// differs from its checkpoint base, so any mix of old and new bytes is
// repaired — and after the rotation the new checkpoint anchors
// directly.
func (d *Durable) Checkpoint(tag uint64, meta []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	lsn, err := d.appendCommitLocked(tag, meta)
	if err != nil {
		return err
	}
	if err := d.log.Sync(lsn); err != nil {
		return err
	}
	for pid, buf := range d.table {
		if _, err := d.fs.WritePage(pid, buf, 0); err != nil {
			return err
		}
		d.unsynced = true
	}
	if err := d.syncPagesLocked(); err != nil {
		return err
	}
	end, err := d.fs.Pages()
	if err != nil {
		return err
	}
	if err := d.log.Rotate(tag, meta); err != nil {
		return err
	}
	d.spare = d.spare[:0]
	for _, buf := range d.table {
		d.spare = append(d.spare, buf)
	}
	clear(d.table)
	d.freshFrom = end
	clear(d.written)
	return nil
}

// DirtyPages reports the dirty-table population.
func (d *Durable) DirtyPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.table)
}

// WALBytes reports the active log segment's size — one checkpoint
// threshold input.
func (d *Durable) WALBytes() int64 { return d.log.ActiveBytes() }

// LagBytes reports how far the page file lags the log: the dirty
// table's pages at their physical size — the other checkpoint
// threshold input. Recovery replays at most these pages.
func (d *Durable) LagBytes() int64 { return int64(d.DirtyPages()) * int64(d.fs.PageSize()) }

// Log exposes the WAL (metrics registration, benchmarks).
func (d *Durable) Log() *wal.Log { return d.log }

// Close drops the file handles without flushing — the crash-shaped
// close. Callers wanting a clean shutdown run Checkpoint first.
func (d *Durable) Close() error {
	lerr := d.log.Close()
	ferr := d.fs.Close()
	if lerr != nil {
		return lerr
	}
	return ferr
}

// RegisterMetrics exposes the store, the log, and recovery counters.
func (d *Durable) RegisterMetrics(reg *obs.Registry) {
	d.fs.RegisterMetrics(reg)
	d.log.RegisterMetrics(reg)
	reg.Counter("filestore.recovery_pages_replayed", func() uint64 { return d.replayedPages })
	reg.Counter("filestore.direct_writes", d.directWrites.Load)
	reg.Gauge("filestore.dirty_pages", func() float64 { return float64(d.DirtyPages()) })
}

var _ buffer.Store = (*Durable)(nil)
