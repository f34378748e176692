package fpbtree

import (
	"errors"
	"fmt"

	"repro/internal/filestore"
	"repro/internal/idx"
	"repro/internal/wal"
)

// ErrNotDurable is returned by the durability methods on a tree that
// was not built WithStorePath.
var ErrNotDurable = errors.New("fpbtree: tree is not durable (build WithStorePath)")

// RecoveryInfo reports what opening a durable store found and redid.
type RecoveryInfo struct {
	// Tag is the recovered durable point — the tag passed to the
	// Commit or Checkpoint that established it.
	Tag uint64
	// PagesReplayed and CommitsApplied count the redo work past the
	// last checkpoint.
	PagesReplayed, CommitsApplied int
	// TailTruncated reports that the log ended in an incomplete or
	// corrupt record past the last commit — the normal signature of a
	// crash, not an error; the uncommitted tail was discarded.
	TailTruncated bool
	// Scavenge is the leaf-chain rebuild that reconstructed the tree's
	// derived state from the recovered pages.
	Scavenge ScavengeStats
}

// Durable reports whether the tree is backed by the durable page store
// (built WithStorePath).
func (t *Tree) Durable() bool { return t.durable != nil }

// RecoveredTag returns the durable point the tree was rebuilt from at
// open. ok is false for a fresh store (nothing to recover) and for
// non-durable trees.
//
// Caveat: a clean Close checkpoints the tree's full current state —
// including writes made after the last Commit — under the last
// committed tag, so after a clean shutdown the reported tag names a
// superset of the state Commit(tag) made durable. Only after a crash
// does tag identify exactly the Commit(tag) state. Callers that need
// tags to be one-to-one with states should Commit (with a fresh tag)
// immediately before Close.
func (t *Tree) RecoveredTag() (tag uint64, ok bool) {
	if t.recovery == nil {
		return 0, false
	}
	return t.recovery.Tag, true
}

// Recovery returns the full recovery report; ok as in RecoveredTag.
func (t *Tree) Recovery() (RecoveryInfo, bool) {
	if t.recovery == nil {
		return RecoveryInfo{}, false
	}
	return *t.recovery, true
}

// WALBytes reports the active log segment's size (one auto-checkpoint
// threshold input), or 0 for non-durable trees.
func (t *Tree) WALBytes() int64 {
	if t.durable == nil {
		return 0
	}
	return t.durable.WALBytes()
}

// Commit establishes a durable point: every page written so far —
// including pages still dirty in the buffer pool — is pushed to the
// durable store, and one group-committed fsync makes the state tagged
// tag recoverable. A crash after Commit returns recovers to exactly
// this state; a crash before loses at most the writes since the
// previous Commit. The store logs only the bytes each page changed and
// writes pages no durable state references yet straight to the page
// file (DESIGN.md §12), so a Commit costs about what it changed.
//
// Commit escalates to a checkpoint (see Checkpoint) when either the
// active log segment or the page file's lag — the pages logged since
// the last checkpoint, at their physical size — has reached
// CheckpointBytes. That bounds recovery replay both in log bytes and in
// distinct pages. An escalated Commit writes one commit record and
// fsyncs the log once, as a plain Commit does, before the checkpoint's
// page writes and rotation.
//
// Locking: whole-tree maintenance — in concurrent mode no operations
// may be in flight, but concurrent Commit calls are allowed and are the
// group-commit case: only the flush and the commit-record append run
// under the tree lock; the fsync happens outside it, so simultaneous
// committers coalesce onto one fsync (see WithGroupCommit). An
// escalated Commit runs its whole checkpoint under the tree lock.
func (t *Tree) Commit(tag uint64) error {
	if t.durable == nil {
		return ErrNotDurable
	}
	t.lock()
	err := t.pool.FlushAll()
	var lsn uint64
	escalate := t.ckptBytes > 0 &&
		max(t.durable.WALBytes(), t.durable.LagBytes()) >= t.ckptBytes
	if err == nil {
		if escalate {
			err = t.durable.Checkpoint(tag, t.metaBlob())
		} else {
			lsn, err = t.durable.AppendCommit(tag, t.metaBlob())
		}
	}
	if err == nil {
		t.lastTag = tag
	}
	t.unlock()
	if err != nil || escalate {
		return err
	}
	return t.durable.Sync(lsn)
}

// Checkpoint establishes a durable point like Commit and then advances
// the page file to it, truncating the log: recovery from here replays
// nothing. More expensive than Commit (every page logged since the last
// checkpoint is written to the page file); call it at operational quiet
// points or rely on the automatic CheckpointBytes escalation.
//
// Locking: whole-tree maintenance — in concurrent mode no operations
// may be in flight.
func (t *Tree) Checkpoint(tag uint64) error {
	if t.durable == nil {
		return ErrNotDurable
	}
	t.lock()
	defer t.unlock()
	if err := t.pool.FlushAll(); err != nil {
		return err
	}
	if err := t.durable.Checkpoint(tag, t.metaBlob()); err != nil {
		return err
	}
	t.lastTag = tag
	return nil
}

// Close shuts a durable tree down cleanly: the current state — all of
// it, including writes since the last Commit — is checkpointed under
// the last committed tag, then the file handles are released. Reopening
// recovers that state with nothing to replay; note the resulting tag
// aliasing described on RecoveredTag (Commit with a fresh tag before
// Close to avoid it). The tree must not be used afterwards. On
// non-durable trees Close is a no-op.
func (t *Tree) Close() error {
	if t.durable == nil {
		return nil
	}
	t.lock()
	err := t.pool.FlushAll()
	if err == nil {
		err = t.durable.Checkpoint(t.lastTag, t.metaBlob())
	}
	t.unlock()
	cerr := t.durable.Close()
	t.durable = nil
	if err != nil {
		return err
	}
	return cerr
}

// Kill drops the durable store's file handles without flushing
// anything — the crash-shaped close the kill-and-replay harness uses.
// Buffered and uncommitted state is lost exactly as in a real crash.
// The tree must not be used afterwards.
func (t *Tree) Kill() error {
	if t.durable == nil {
		return ErrNotDurable
	}
	err := t.durable.Close()
	t.durable = nil
	return err
}

// metaBlob snapshots the tree state every commit record carries: the
// variant and page size (configuration guards), the root/leftmost-leaf
// pointers, and the page allocator.
func (t *Tree) metaBlob() []byte {
	rec := t.index.(idx.Recoverable)
	next, free := t.pool.AllocState()
	return filestore.EncodeMeta(filestore.Meta{
		Variant:  uint8(t.opts.Variant),
		PageSize: uint32(t.durable.PageSize()),
		Tree:     rec.DurableMeta(),
		NextPID:  next,
		FreePIDs: free,
	})
}

// recoverFrom rebuilds the tree from the durable point wal.Recover
// found: decode the commit metadata, validate it against this tree's
// configuration, restore the allocator and the essential pointers, and
// scavenge the leaf chain to reconstruct all derived state (the
// scavenge abandons old page IDs rather than recycling them, so the
// pre-scavenge pages on disk stay intact until the next Commit).
func (t *Tree) recoverFrom(res wal.RecoveryResult) error {
	rec, ok := t.index.(idx.Recoverable)
	if !ok {
		return fmt.Errorf("fpbtree: variant %s does not support durable recovery", t.opts.Variant)
	}
	if !res.HadState || len(res.Meta) == 0 {
		// Fresh store (or the initial tag-0 checkpoint): nothing to
		// restore, RecoveredTag reports ok=false.
		return nil
	}
	m, err := filestore.DecodeMeta(res.Meta)
	if err != nil {
		return err
	}
	if m.Variant != uint8(t.opts.Variant) {
		return fmt.Errorf("fpbtree: store holds variant %s, opened as %s",
			Variant(m.Variant), t.opts.Variant)
	}
	if m.PageSize != uint32(t.durable.PageSize()) {
		// Belt and braces: the page-file header already refuses a
		// physical-size mismatch before this point.
		return fmt.Errorf("fpbtree: store page size %d, opened with %d", m.PageSize, t.durable.PageSize())
	}
	t.pool.RestoreAllocState(m.NextPID, m.FreePIDs)
	if err := rec.RestoreMeta(m.Tree); err != nil {
		return err
	}
	info := RecoveryInfo{
		Tag:            res.Tag,
		PagesReplayed:  res.PagesReplayed,
		CommitsApplied: res.CommitsApplied,
		TailTruncated:  res.TailTruncated,
	}
	if m.Tree.RootPID != 0 {
		stats, err := t.index.Scavenge()
		if err != nil {
			return err
		}
		info.Scavenge = stats
	}
	t.recovery = &info
	t.lastTag = res.Tag
	return nil
}
