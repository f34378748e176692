// Package latch provides a growable table of per-page reader/writer
// latches for the concurrent serving mode. A latch word is a single
// atomic uint64 per page ID packing three fields:
//
//	[ version : 33 | exclusive : 1 | shared count : 30 ]
//
// Shared holders increment the low count; an exclusive holder sets the
// exclusive bit. The version field is bumped once on every exclusive
// acquire and once more on release, so a version sampled while the word
// is unlocked changes whenever a writer has touched the page in
// between. That makes the word double as a seqlock for optimistic
// (latch-free) readers: sample the version with ReadVersion, read the
// page with no stores, then Validate before trusting anything derived
// from the bytes (DESIGN.md §11.6).
//
// The latch protocol (DESIGN.md §11) keeps the wait graph acyclic by
// restricting which acquisitions may block:
//
//   - Every blocking acquisition (RLock, Lock) follows the global latch
//     order: tree levels top-down, and left-to-right along the sibling
//     chain within a level. Latches from two different levels are held
//     together only by writers crabbing downward (parent before child),
//     never upward.
//   - Acquisitions that would run against that order — the cache-first
//     variant's bottom-up leaf-parent chain fixes and its overflow-page
//     allocation — use the try forms (TryLock, TryRLock) and, on
//     failure, release every held latch and restart the operation from
//     the root (the upgrade-free restart protocol: a latch is never
//     upgraded in place and a failed try never waits).
//   - The eviction path uses TryLock only: if any holder is present,
//     the evictor walks on to the next CLOCK victim instead of
//     waiting. No latch is ever awaited while a pool shard mutex is
//     held. The TryLock/Unlock pair bumps the version twice, so an
//     optimistic reader can never validate across an eviction.
//   - Optimistic readers never block and never store: a write-locked
//     observation or a failed Validate restarts the descent (with
//     Backoff), falling back to the latched path after a bounded
//     number of restarts.
//
// The table grows in fixed-size segments so that latch words are never
// moved or copied once handed out; lookups are lock-free.
package latch

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

const (
	segBits = 10
	segSize = 1 << segBits // latch words per segment

	sharedMask = 1<<30 - 1 // low 30 bits: shared holder count
	exclBit    = 1 << 30   // one exclusive holder present
	verShift   = 31        // version occupies the high 33 bits
	verInc     = 1 << verShift
)

type segment [segSize]atomic.Uint64

// Table maps page IDs to reader/writer latch words. The zero value is
// not usable; construct with NewTable. Its counters are per-P striped
// obs.Counters, so that counting an acquisition writes no cache line
// another processor writes; their padding also keeps segs, which every
// latch operation loads, on a line no counter shares.
type Table struct {
	mu   sync.Mutex // guards growth of the segment directory
	segs atomic.Pointer[[]*segment]

	shared    obs.Counter // successful shared acquisitions
	exclusive obs.Counter // successful exclusive acquisitions
	waits     obs.Counter // reader spins while a writer held the word
	exclWaits obs.Counter // writer spins while the word was held
	tryFails  obs.Counter // TryLock/TryRLock calls that found the word held

	optRestarts  obs.Counter // optimistic descents restarted on version mismatch
	optFallbacks obs.Counter // optimistic descents that fell back to latched reads

	optWrites         obs.Counter // writes finished on the leaf-only path
	optWriteFallbacks obs.Counter // writes that took the structural path
}

// NewTable returns an empty latch table.
func NewTable() *Table {
	t := &Table{}
	segs := make([]*segment, 0, 8)
	t.segs.Store(&segs)
	return t
}

// word returns the latch word for pid, growing the directory if needed.
func (t *Table) word(pid uint32) *atomic.Uint64 {
	idx := int(pid >> segBits)
	segs := *t.segs.Load()
	if idx >= len(segs) {
		segs = t.grow(idx)
	}
	return &segs[idx][pid&(segSize-1)]
}

// grow extends the segment directory to cover index idx and returns the
// new directory. Existing segments are shared, never copied, so latch
// words already handed out stay valid.
func (t *Table) grow(idx int) []*segment {
	t.mu.Lock()
	defer t.mu.Unlock()
	segs := *t.segs.Load()
	if idx < len(segs) {
		return segs
	}
	grown := make([]*segment, idx+1)
	copy(grown, segs)
	for i := len(segs); i < len(grown); i++ {
		grown[i] = new(segment)
	}
	t.segs.Store(&grown)
	return grown
}

// RLock acquires the shared latch on pid, spinning (with bounded
// exponential backoff) while an exclusive holder is present. Shared
// holders never block each other.
func (t *Table) RLock(pid uint32) {
	w := t.word(pid)
	var b Backoff
	for {
		v := w.Load()
		if v&exclBit == 0 {
			if w.CompareAndSwap(v, v+1) {
				t.shared.Add(1)
				return
			}
			continue // lost a race against another reader; no wait
		}
		t.waits.Add(1)
		b.Pause()
	}
}

// RUnlock releases one shared hold on pid.
func (t *Table) RUnlock(pid uint32) {
	if t.word(pid).Add(^uint64(0))&sharedMask == sharedMask {
		panic("latch: RUnlock of an unlatched page")
	}
}

// TryRLock attempts the shared latch on pid without blocking and
// reports whether it was acquired. Used for shared acquisitions that
// run against the global latch order (callers release everything and
// restart on failure).
func (t *Table) TryRLock(pid uint32) bool {
	w := t.word(pid)
	for {
		v := w.Load()
		if v&exclBit != 0 {
			t.tryFails.Add(1)
			return false
		}
		if w.CompareAndSwap(v, v+1) {
			t.shared.Add(1)
			return true
		}
	}
}

// Lock acquires the exclusive latch on pid, spinning (with bounded
// exponential backoff) while any holder is present, and bumps the
// version so concurrent optimistic readers cannot validate. Callers
// must follow the global latch order (top-down, left-to-right);
// out-of-order exclusive acquisitions must use TryLock instead.
func (t *Table) Lock(pid uint32) {
	w := t.word(pid)
	var b Backoff
	for {
		v := w.Load()
		if v&(exclBit|sharedMask) == 0 {
			if w.CompareAndSwap(v, v+exclBit+verInc) {
				t.exclusive.Add(1)
				return
			}
			continue
		}
		t.exclWaits.Add(1)
		b.Pause()
	}
}

// TryLock attempts the exclusive latch on pid without blocking and
// reports whether it was acquired. On success the version is bumped.
func (t *Table) TryLock(pid uint32) bool {
	w := t.word(pid)
	v := w.Load()
	if v&(exclBit|sharedMask) == 0 && w.CompareAndSwap(v, v+exclBit+verInc) {
		t.exclusive.Add(1)
		return true
	}
	t.tryFails.Add(1)
	return false
}

// Unlock releases the exclusive latch on pid and bumps the version a
// second time, invalidating any optimistic read that overlapped the
// exclusive section.
func (t *Table) Unlock(pid uint32) {
	w := t.word(pid)
	for {
		v := w.Load()
		if v&exclBit == 0 {
			panic("latch: Unlock of a page not exclusively latched")
		}
		if w.CompareAndSwap(v, v-exclBit+verInc) {
			return
		}
	}
}

// ReadVersion samples pid's version for an optimistic read. ok is
// false when an exclusive holder is present — the caller should back
// off and restart rather than read bytes a writer is mutating. Shared
// holders do not affect the version, so optimistic and latched readers
// coexist freely.
func (t *Table) ReadVersion(pid uint32) (ver uint64, ok bool) {
	v := t.word(pid).Load()
	if v&exclBit != 0 {
		return 0, false
	}
	return v >> verShift, true
}

// Validate reports whether pid's version still equals ver and no
// exclusive holder is present: every byte read since the matching
// ReadVersion was untouched by writers and may be trusted. On false
// the caller must discard everything derived from those reads and
// restart.
func (t *Table) Validate(pid uint32, ver uint64) bool {
	v := t.word(pid).Load()
	return v&exclBit == 0 && v>>verShift == ver
}

// Invalidate bumps pid's version without acquiring the latch. The
// buffer pool calls it on paths that recycle or drop a page outside
// the eviction latch handshake (FreePage, pool-wide invalidation), so
// an optimistic reader that sampled the old version can never validate
// against the recycled frame. The caller must already exclude latched
// access to pid by other means.
func (t *Table) Invalidate(pid uint32) {
	t.word(pid).Add(verInc)
}

// Holders reports the current holder count of pid's latch word:
// 0 free, n > 0 shared holders, -1 exclusive.
func (t *Table) Holders(pid uint32) int {
	v := t.word(pid).Load()
	if v&exclBit != 0 {
		return -1
	}
	return int(v & sharedMask)
}

// Version exposes pid's raw version counter for tests and invariant
// checks.
func (t *Table) Version(pid uint32) uint64 { return t.word(pid).Load() >> verShift }

// OptRestart records one optimistic-descent restart (version mismatch
// or write-locked observation).
func (t *Table) OptRestart() { t.optRestarts.Add(1) }

// OptFallback records one optimistic descent abandoning latch-free
// mode for the shared-latch path after exhausting its restart budget.
func (t *Table) OptFallback() { t.optFallbacks.Add(1) }

// OptWrite records one Insert or Delete finished on the leaf-only path:
// a latch-free descent and one exclusive latch, on the leaf page.
func (t *Table) OptWrite() { t.optWrites.Add(1) }

// OptWriteFallback records one Insert or Delete that took the
// structural path instead (exclusive crabbing, or cache-first's writer
// mutex), whatever sent it there.
func (t *Table) OptWriteFallback() { t.optWriteFallbacks.Add(1) }

// OptRestarts returns the total optimistic restarts recorded.
func (t *Table) OptRestarts() uint64 { return t.optRestarts.Load() }

// OptFallbacks returns the total optimistic fallbacks recorded.
func (t *Table) OptFallbacks() uint64 { return t.optFallbacks.Load() }

// RegisterMetrics registers the table's counters with reg under the
// latch.* metric names (see DESIGN.md §11 for the catalog).
func (t *Table) RegisterMetrics(reg *obs.Registry) {
	reg.Counter("latch.shared_acquisitions", t.shared.Load)
	reg.Counter("latch.exclusive_acquisitions", t.exclusive.Load)
	reg.Counter("latch.reader_waits", t.waits.Load)
	reg.Counter("latch.writer_waits", t.exclWaits.Load)
	reg.Counter("latch.try_fails", t.tryFails.Load)
	reg.Counter("latch.opt_restarts", t.optRestarts.Load)
	reg.Counter("latch.opt_fallbacks", t.optFallbacks.Load)
	reg.Counter("latch.opt_writes", t.optWrites.Load)
	reg.Counter("latch.opt_write_fallbacks", t.optWriteFallbacks.Load)
}

// spinPauses is how many Backoff pauses busy-spin before yielding the
// processor. 2^spinPauses spin-hint calls (~a few hundred ns) covers
// the common case of a writer finishing its in-page edit.
const spinPauses = 6

// Backoff implements the bounded exponential backoff used by every
// restart loop (optimistic descents, the cache-first relocation-epoch
// restart, writer crab retries). Early pauses busy-spin with
// exponentially growing counts — cheap when the conflicting writer is
// about to finish — and later pauses yield the processor, so a
// long-running writer cannot pin restarting readers at 100% CPU. The
// zero value is ready to use; Pause mutates only the receiver, so a
// Backoff must not be shared across goroutines.
type Backoff struct{ n uint }

// Pause blocks the caller briefly, exponentially longer on each call.
func (b *Backoff) Pause() {
	b.n++
	if b.n <= spinPauses {
		for i := 0; i < 1<<b.n; i++ {
			spinHint()
		}
		return
	}
	runtime.Gosched()
}

// Attempts reports how many times Pause has run since the last Reset.
func (b *Backoff) Attempts() int { return int(b.n) }

// Reset rewinds the backoff to its initial (spinning) phase.
func (b *Backoff) Reset() { b.n = 0 }

// spinLockTries bounds SpinLock's spin phase: each try is a load of the
// mutex word and sixteen spin hints, about 30 ns, so about 30 µs in
// all.
const spinLockTries = 1000

// SpinLock locks mu, spinning briefly before it parks. It is for
// mutexes whose holder is normally done in microseconds, where a parked
// waiter would wait for a scheduler wake-up that can cost a hundred
// times that (DESIGN.md §11.6, restart and fallback rule): cache-first's
// structural-writer mutex (wMu), and the buffer pool's shard mutex on
// the miss path. Neither guards a page read any more — a miss claims
// its frame, reads with the shard mutex released and retakes it to
// publish, and the checksum store's reads take no exclusive lock — so
// the shard mutex's sections are a table probe and a few stores, with
// one exception left for a workload that evicts dirty pages under
// concurrency: a dirty victim's write-back still runs under it. A
// holder slower than the spin budget — that write-back on a real disk,
// a descheduled goroutine — is waited for asleep, as with a plain Lock.
func SpinLock(mu *sync.Mutex) {
	for i := 0; i < spinLockTries; i++ {
		if mu.TryLock() {
			return
		}
		for j := 0; j < 16; j++ {
			spinHint()
		}
	}
	mu.Lock()
}

// spinHint burns one call's worth of CPU without touching memory. The
// noinline pragma keeps the compiler from deleting the spin loop.
//
//go:noinline
func spinHint() {}
