package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/obs"
)

// Options tunes the log's commit pipeline.
type Options struct {
	// GroupSize is the number of pending commits a group-commit leader
	// waits for before issuing the fsync (when GroupDelay allows
	// waiting). 1 (or 0) fsyncs immediately.
	GroupSize int
	// GroupDelay bounds how long a leader waits to fill a group. Zero
	// means fsync immediately; waiters that arrive during the fsync
	// still coalesce onto the next one.
	GroupDelay time.Duration
	// NoFsync skips physical fsyncs. Test-harness knob: the crash
	// protocol simulates power loss by truncating log files, which
	// fsync does not influence, so harness runs elide the syscall.
	// Production opens leave it false. All fsync accounting still runs.
	NoFsync bool
}

// Log is a segmented write-ahead log. One segment is active; the
// previous segment is retained after rotation so that recovery can
// fall back one generation if the active segment's leading checkpoint
// is itself damaged. All appends go to the active segment through the
// OS page cache; durability is explicit via Sync (group commit).
type Log struct {
	mu   sync.Mutex
	cond *sync.Cond
	dir  string
	opts Options

	active *os.File
	seq    uint64 // active segment sequence number
	size   int64  // bytes appended to the active segment
	lsn    uint64 // last assigned LSN

	// Group-commit state: one leader fsyncs on behalf of every waiter
	// whose LSN the fsync covers.
	syncing       bool
	syncedLSN     uint64
	commitsTotal  uint64 // commit records appended (all time)
	commitsSynced uint64 // commit records covered by the last fsync

	closed bool
	// failed latches the first fsync failure permanently: on Linux a
	// failed fsync may drop the dirty pages and clear the error state,
	// so a retry can "succeed" without the data ever reaching disk (the
	// PostgreSQL fsyncgate failure mode). Once set, every append, Sync,
	// and Rotate fails with it until the store is reopened and recovered
	// from what is actually durable.
	failed error

	appends   atomic.Uint64
	images    atomic.Uint64
	deltas    atomic.Uint64
	commits   atomic.Uint64
	fsyncs    atomic.Uint64
	bytes     atomic.Uint64
	rotations atomic.Uint64
	groupHist *obs.Histogram

	scratch []byte // append encoding buffer, guarded by mu
}

// segmentName formats the file name for sequence seq.
func segmentName(seq uint64) string { return fmt.Sprintf("wal-%08d.log", seq) }

// SyncDir fsyncs a directory so that file creations and removals
// inside it are durable: fsyncing a new file persists its contents but
// not its directory entry, which lives in the directory's own blocks.
// Exported for filestore, which has the same obligation after creating
// its page file.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// Segment describes one on-disk log segment.
type Segment struct {
	Seq  uint64
	Path string
	Size int64
}

// SegmentFiles lists the directory's WAL segments in ascending
// sequence order. Exported for the crash harness, which truncates the
// active (last) segment at chosen offsets.
func SegmentFiles(dir string) ([]Segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []Segment
	for _, e := range ents {
		var seq uint64
		if n, _ := fmt.Sscanf(e.Name(), "wal-%d.log", &seq); n != 1 {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, err
		}
		segs = append(segs, Segment{Seq: seq, Path: filepath.Join(dir, e.Name()), Size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Seq < segs[j].Seq })
	return segs, nil
}

// Start opens the log for appending after recovery: it creates a fresh
// segment (sequence above every existing file, valid or not) whose
// first record is a checkpoint carrying the recovered durable point,
// fsyncs it, and then deletes every other segment except recovery's
// base — the page file plus this checkpoint fully anchor the state, and
// the base is kept as the one-generation fallback. On a fresh directory
// the checkpoint carries tag 0 and empty meta.
func Start(dir string, res RecoveryResult, opts Options) (*Log, error) {
	l := &Log{dir: dir, opts: opts, lsn: res.NextLSN - 1}
	if res.NextLSN == 0 {
		l.lsn = 0
	}
	l.cond = sync.NewCond(&l.mu)
	if err := l.rotateLocked(res.Tag, res.Meta, res.BaseSeq, res.maxSeq); err != nil {
		return nil, err
	}
	return l, nil
}

// rotateLocked creates segment after+1 with a leading checkpoint
// record, fsyncs it, swaps it in as active, and prunes every segment
// other than keep (the fallback generation) and the new one. Callers
// hold mu or have exclusive access.
func (l *Log) rotateLocked(tag uint64, meta []byte, keep, after uint64) error {
	seq := after + 1
	if l.seq > after {
		seq = l.seq + 1
	}
	path := filepath.Join(l.dir, segmentName(seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	l.lsn++
	frame := AppendRecord(l.scratch[:0], Record{LSN: l.lsn, Type: RecCheckpoint, Payload: encodePoint(tag, meta)})
	l.scratch = frame[:0]
	if err := writeFull(f, frame); err != nil {
		f.Close()
		return err
	}
	if !l.opts.NoFsync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		// The segment's directory entry must be durable before the
		// checkpoint it carries can be trusted — and before any older
		// segment is unlinked below, or a power loss could leave the
		// directory holding neither generation.
		if err := SyncDir(l.dir); err != nil {
			f.Close()
			return err
		}
	}
	l.fsyncs.Add(2) // segment contents + its directory entry
	l.appends.Add(1)
	l.bytes.Add(uint64(len(frame)))
	if l.active != nil {
		l.active.Close()
	}
	old := l.seq
	l.active, l.seq, l.size = f, seq, int64(len(frame))
	l.syncedLSN = l.lsn
	l.commitsSynced = l.commitsTotal
	if old != 0 {
		keep = old
	}
	segs, err := SegmentFiles(l.dir)
	if err != nil {
		return err
	}
	removed := 0
	for _, s := range segs {
		if s.Seq != seq && s.Seq != keep {
			if err := os.Remove(s.Path); err != nil {
				return err
			}
			removed++
		}
	}
	if removed > 0 {
		// Make the unlinks durable too, so stale segments cannot
		// resurrect after a power loss and shadow the live generations.
		if !l.opts.NoFsync {
			if err := SyncDir(l.dir); err != nil {
				return err
			}
		}
		l.fsyncs.Add(1)
	}
	l.rotations.Add(1)
	return nil
}

// writeFull writes all of buf, mapping partial writes to the typed
// short-write sentinel: a half-written frame must never be trusted.
func writeFull(f *os.File, buf []byte) error {
	n, err := f.Write(buf)
	if err == nil && n < len(buf) {
		err = fmt.Errorf("wal: wrote %d of %d bytes: %w", n, len(buf), buffer.ErrShortWrite)
	}
	return err
}

// append encodes and writes one record to the active segment,
// returning its LSN. Durability requires a subsequent Sync.
func (l *Log) append(typ RecordType, pid uint32, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: log closed")
	}
	if l.failed != nil {
		return 0, l.failed
	}
	l.lsn++
	frame := AppendRecord(l.scratch[:0], Record{LSN: l.lsn, Type: typ, PID: pid, Payload: payload})
	l.scratch = frame[:0]
	if err := writeFull(l.active, frame); err != nil {
		return 0, err
	}
	l.size += int64(len(frame))
	l.appends.Add(1)
	l.bytes.Add(uint64(len(frame)))
	switch typ {
	case RecPage:
		l.images.Add(1)
	case RecPageDelta:
		l.deltas.Add(1)
	case RecCommit:
		l.commits.Add(1)
		l.commitsTotal++
	}
	return l.lsn, nil
}

// AppendPage logs a full physical image of page pid.
func (l *Log) AppendPage(pid uint32, img []byte) (uint64, error) {
	return l.append(RecPage, pid, img)
}

// AppendPageDelta logs the byte ranges of page pid that changed since
// the image the log last held for it (an EncodeDelta payload).
func (l *Log) AppendPageDelta(pid uint32, delta []byte) (uint64, error) {
	return l.append(RecPageDelta, pid, delta)
}

// AppendCommit logs a durable point: every page record appended since
// the previous commit becomes redo state once this record is synced.
func (l *Log) AppendCommit(tag uint64, meta []byte) (uint64, error) {
	return l.append(RecCommit, 0, encodePoint(tag, meta))
}

// Sync blocks until the log is durable at least through lsn. Concurrent
// callers coalesce: one leader issues the fsync for every waiter whose
// LSN it covers (group commit); GroupSize/GroupDelay let the leader
// linger to fill a batch before paying for the fsync.
func (l *Log) Sync(lsn uint64) error {
	l.mu.Lock()
	for {
		if l.closed {
			l.mu.Unlock()
			return fmt.Errorf("wal: log closed")
		}
		if l.failed != nil {
			err := l.failed
			l.mu.Unlock()
			return err
		}
		if l.syncedLSN >= lsn {
			l.mu.Unlock()
			return nil
		}
		if !l.syncing {
			break
		}
		l.cond.Wait()
	}
	l.syncing = true
	if l.opts.GroupDelay > 0 && l.opts.GroupSize > 1 {
		deadline := time.Now().Add(l.opts.GroupDelay)
		for l.commitsTotal-l.commitsSynced < uint64(l.opts.GroupSize) {
			d := time.Until(deadline)
			if d <= 0 {
				break
			}
			if d > 200*time.Microsecond {
				d = 200 * time.Microsecond
			}
			l.mu.Unlock()
			time.Sleep(d)
			l.mu.Lock()
		}
	}
	target := l.lsn
	covered := l.commitsTotal
	f := l.active
	l.mu.Unlock()

	var err error
	if !l.opts.NoFsync {
		err = f.Sync()
	}

	l.mu.Lock()
	l.fsyncs.Add(1)
	if group := covered - l.commitsSynced; group > 0 && l.groupHist != nil {
		l.groupHist.Record(group)
	}
	if err == nil {
		if target > l.syncedLSN {
			l.syncedLSN = target
		}
		l.commitsSynced = covered
	} else if l.failed == nil {
		// Do NOT leave the log retryable: the kernel may have dropped
		// the dirty pages along with the error, so a second fsync on
		// the same fd can report success for data that never landed.
		l.failed = fmt.Errorf("wal: fsync failed, log disabled until reopen: %w", err)
	}
	l.syncing = false
	l.cond.Broadcast()
	l.mu.Unlock()
	return err
}

// SyncAll makes every appended record durable.
func (l *Log) SyncAll() error {
	l.mu.Lock()
	lsn := l.lsn
	l.mu.Unlock()
	return l.Sync(lsn)
}

// Rotate seals the active segment and starts a fresh one anchored by a
// checkpoint record carrying (tag, meta). The caller (the durable
// store's checkpoint) must already have made the page file consistent
// with this durable point — synced WAL, flushed pages, synced page
// file — before rotating. The sealed segment is retained as the
// fallback generation; anything older is deleted. The sealed segment is
// fsynced first unless a Sync already covers its last record.
func (l *Log) Rotate(tag uint64, meta []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.syncing {
		l.cond.Wait()
	}
	if l.closed {
		return fmt.Errorf("wal: log closed")
	}
	if l.failed != nil {
		return l.failed
	}
	if l.syncedLSN < l.lsn {
		if !l.opts.NoFsync {
			if err := l.active.Sync(); err != nil {
				l.failed = fmt.Errorf("wal: fsync failed, log disabled until reopen: %w", err)
				return l.failed
			}
		}
		l.fsyncs.Add(1)
		l.syncedLSN = l.lsn
		l.commitsSynced = l.commitsTotal
	}
	if err := l.rotateLocked(tag, meta, l.seq, l.seq); err != nil {
		// A half-finished rotation leaves the active handle and the
		// directory in an uncertain state; poison the log rather than
		// let later appends write somewhere recovery will not look.
		l.failed = fmt.Errorf("wal: rotation failed, log disabled until reopen: %w", err)
		return l.failed
	}
	return nil
}

// ActiveBytes reports the size of the active segment — the input to
// the facade's checkpoint-threshold policy.
func (l *Log) ActiveBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// LastLSN reports the most recently assigned LSN.
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// Close releases the active segment handle without flushing: callers
// wanting durability run a commit or checkpoint first. Safe to call on
// a log whose process is about to "crash" in the harness sense.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.syncing {
		l.cond.Wait()
	}
	if l.closed {
		return nil
	}
	l.closed = true
	l.cond.Broadcast()
	return l.active.Close()
}

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	Appends      uint64
	Commits      uint64
	Fsyncs       uint64
	BytesWritten uint64
	Rotations    uint64
}

// Stats returns the current counter values.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:      l.appends.Load(),
		Commits:      l.commits.Load(),
		Fsyncs:       l.fsyncs.Load(),
		BytesWritten: l.bytes.Load(),
		Rotations:    l.rotations.Load(),
	}
}

// RegisterMetrics exposes the log under the wal.* namespace.
func (l *Log) RegisterMetrics(reg *obs.Registry) {
	reg.Counter("wal.appends", l.appends.Load)
	reg.Counter("wal.page_images", l.images.Load)
	reg.Counter("wal.page_deltas", l.deltas.Load)
	reg.Counter("wal.commits", l.commits.Load)
	reg.Counter("wal.fsyncs", l.fsyncs.Load)
	reg.Counter("wal.bytes_written", l.bytes.Load)
	reg.Counter("wal.rotations", l.rotations.Load)
	reg.Gauge("wal.active_bytes", func() float64 { return float64(l.ActiveBytes()) })
	l.groupHist = reg.Histogram("wal.group_commit_size")
}
