package buffer

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/latch"
	"repro/internal/memsim"
	"repro/internal/obs"
)

// Stats counts pool activity. DemandMisses is the Figure 17 metric:
// page reads triggered by a Get that found neither a resident nor an
// in-flight frame.
type Stats struct {
	Gets          uint64
	Hits          uint64
	DemandMisses  uint64
	PrefetchIssue uint64 // prefetch reads issued to the store
	PrefetchHits  uint64 // Gets satisfied by a previously prefetched frame
	Evictions     uint64
	DirtyWrites   uint64
	// Retries counts store reads/writes reissued after a transient
	// I/O error (each retry waits a doubling virtual-time backoff).
	Retries uint64
	// ChecksumFailures counts store reads that returned ErrCorruptPage
	// (one per read attempt of a corrupted page).
	ChecksumFailures uint64
	// PrefetchFailures counts prefetches dropped because the store read
	// (or frame acquisition) failed; the later demand Get re-reads the
	// page, so a failed prefetch degrades to a demand read instead of
	// failing the operation that issued it.
	PrefetchFailures uint64
}

// poolStats is the always-atomic backing for Stats, so counters stay
// exact when shards run concurrently and identical when they do not.
type poolStats struct {
	gets, hits, demandMisses    atomic.Uint64
	prefetchIssue, prefetchHits atomic.Uint64
	evictions, dirtyWrites      atomic.Uint64
	retries                     atomic.Uint64
	checksumFailures            atomic.Uint64
	prefetchFailures            atomic.Uint64
	// Contention signals (pool.shard.* metrics). evictLatchFails counts
	// CLOCK victims skipped because a latch holder was present (the
	// eviction TryLock refusing to wait); lockedGets counts Gets that
	// fell off the lock-free fast path onto the shard mutex. Both sit
	// off the warm pin path, so instrumenting them is atomic adds only.
	evictLatchFails atomic.Uint64
	lockedGets      atomic.Uint64
}

// Page is a pinned page handle, passed by value so that pinning never
// heap-allocates. Data aliases the frame's buffer and is valid until
// Unpin. The zero Page is the invalid sentinel (page ID 0 is the nil
// page).
type Page struct {
	ID   uint32
	Data []byte
	// Addr is the page's simulated base address for memsim charging.
	Addr memsim.Addr

	frame int
	shard int32
	// excl records that the pin holds the page's exclusive latch (GetX/
	// TryGetX/NewPageX on a latched pool); Unpin releases accordingly.
	excl bool
}

// Valid reports whether pg refers to a pinned page (the zero Page does
// not).
func (pg Page) Valid() bool { return pg.ID != 0 }

// fastSize is the size of the per-shard direct-mapped pid→frame fast
// path in front of the frame table. Must be a power of two.
const fastSize = 128

// Frame state word layout: [epoch:31 | valid:1 | pin:32]. The pin count
// occupies the low 32 bits so a lock-free pin is a bare CAS increment;
// the epoch increments on every invalidation so a pin CAS that raced an
// evict/refill cycle can never succeed against the recycled frame's
// word (ABA protection).
const (
	framePinMask  uint64 = (1 << 32) - 1
	frameValidBit uint64 = 1 << 32
	frameEpochInc uint64 = 1 << 33
)

// Pool is a CLOCK-replacement buffer pool over a Store. It is built
// from one or more shards, each with its own frame table, CLOCK hand,
// mutex, and direct-mapped fast path; page IDs hash to shards. NewPool
// builds a single shard, which preserves the exact single-threaded
// CLOCK schedule of the sequential simulations; NewConcurrentPool
// spreads frames over several shards and attaches a per-page latch
// table for the concurrent serving mode.
type Pool struct {
	store    Store
	pageSize int
	shards   []poolShard
	// shardShift converts a hashed pid to a shard index (32 means one
	// shard: every page hashes to shard 0).
	shardShift  uint32
	totalFrames int
	mm          *memsim.Model
	tr          *obs.Tracer
	space       *memsim.AddressSpace
	// latches, when non-nil, is the per-page reader/writer latch table:
	// every pin holds the page's shared latch for its lifetime and the
	// eviction path claims victims with a non-blocking exclusive try.
	latches *latch.Table

	// clock is the pool's virtual I/O time in microseconds. Reads
	// advance it monotonically (CAS-max), which collapses to plain
	// assignment in the single-threaded simulations.
	clock atomic.Uint64

	allocMu  sync.Mutex
	nextPID  uint32
	freePIDs []uint32

	stats poolStats
}

type poolShard struct {
	mu     sync.Mutex
	frames []frame
	table  map[uint32]int
	// fast is a lock-free direct-mapped cache of recent table lookups
	// (hot root / upper-level pages hit here without the shard mutex or
	// the map). Each slot packs pid<<32 | frameIdx+1; entries are
	// validated against the frame state word and pid before use and are
	// explicitly cleared when their frame is evicted or discarded.
	fast [fastSize]atomic.Uint64
	hand int
}

type frame struct {
	// state is the atomic pin/valid/epoch word (see frame* constants).
	state atomic.Uint64
	// pid is the occupant page; written only while the frame is invalid
	// (under the shard mutex, with pin known to be zero), read lock-free
	// by the fast pin path to detect frame recycling.
	pid atomic.Uint32
	// readyAt is the virtual completion time of the in-flight prefetch
	// that filled the frame (0 = none). Non-zero routes fast-path Gets
	// to the locked path, which owns the wait/accounting protocol.
	readyAt atomic.Uint64
	// ref is the CLOCK reference bit; set lock-free on every pin.
	ref  atomic.Bool
	data []byte
	// dirty is guarded by the shard mutex (dirtying unpins take it).
	dirty bool
}

func packFast(pid uint32, idx int) uint64 { return uint64(pid)<<32 | uint64(idx+1) }

// NewPool creates a single-shard pool with the given number of frames —
// the configuration every sequential simulation uses; its replacement
// schedule and accounting are identical to the pre-sharding pool.
func NewPool(store Store, frames int) *Pool {
	return newPool(store, frames, 1, false)
}

// NewConcurrentPool creates a pool whose frames are spread over shards
// (rounded up to a power of two) with a per-page latch table attached.
// Gets and Unpins of warm pages are lock-free; misses and evictions
// take only their shard's mutex.
func NewConcurrentPool(store Store, frames, shards int) *Pool {
	return newPool(store, frames, shards, true)
}

func newPool(store Store, frames, shards int, latched bool) *Pool {
	if frames <= 0 {
		// Programmer invariant, deliberately kept as a panic: a frame
		// count is static configuration validated by every construction
		// path (facade options, harness params), never data- or
		// I/O-dependent, so reaching this line is a caller bug.
		panic("buffer: pool needs at least one frame")
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	if n > frames {
		// Every shard needs at least one frame.
		for n > 1 && n > frames {
			n >>= 1
		}
	}
	p := &Pool{
		store:       store,
		pageSize:    store.PageSize(),
		shards:      make([]poolShard, n),
		shardShift:  32 - uint32(log2(n)),
		totalFrames: frames,
		space:       memsim.NewAddressSpace(store.PageSize()),
		nextPID:     1, // page 0 is the nil page
	}
	if latched {
		p.latches = latch.NewTable()
	}
	base, extra := frames/n, frames%n
	for s := range p.shards {
		cnt := base
		if s < extra {
			cnt++
		}
		sh := &p.shards[s]
		sh.frames = make([]frame, cnt)
		sh.table = make(map[uint32]int, cnt)
		for i := range sh.frames {
			sh.frames[i].data = make([]byte, p.pageSize)
		}
	}
	return p
}

func log2(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// shardFor hashes pid onto a shard. With one shard the shift is 32 and
// every page maps to shard 0.
func (p *Pool) shardFor(pid uint32) *poolShard {
	return &p.shards[(pid*0x9E3779B1)>>p.shardShift]
}

// ShardCount reports how many shards the pool was built with.
func (p *Pool) ShardCount() int { return len(p.shards) }

// Latches exposes the per-page latch table (nil unless the pool was
// built with NewConcurrentPool).
func (p *Pool) Latches() *latch.Table { return p.latches }

// AttachModel makes the pool charge buffer-manager instruction overhead
// (memsim.CostBufferFix per Get) to mm, reproducing footnote 4's "extra
// busy time ... due to buffer pool management".
func (p *Pool) AttachModel(mm *memsim.Model) { p.mm = mm }

// AttachTracer makes the pool emit buffer events (hit, demand miss,
// prefetch issue/hit, eviction) to tr. A nil tracer disables emission.
func (p *Pool) AttachTracer(tr *obs.Tracer) { p.tr = tr }

// RegisterMetrics registers the pool's counters with reg under the
// buffer.* metric names (see DESIGN.md for the catalog).
func (p *Pool) RegisterMetrics(reg *obs.Registry) {
	reg.Counter("buffer.gets", p.stats.gets.Load)
	reg.Counter("buffer.hits", p.stats.hits.Load)
	reg.Counter("buffer.demand_misses", p.stats.demandMisses.Load)
	reg.Counter("buffer.prefetch_issued", p.stats.prefetchIssue.Load)
	reg.Counter("buffer.prefetch_hits", p.stats.prefetchHits.Load)
	reg.Counter("buffer.evictions", p.stats.evictions.Load)
	reg.Counter("buffer.dirty_writes", p.stats.dirtyWrites.Load)
	reg.Counter("buffer.retries", p.stats.retries.Load)
	reg.Counter("buffer.checksum_failures", p.stats.checksumFailures.Load)
	reg.Counter("buffer.prefetch_failures", p.stats.prefetchFailures.Load)
	reg.Counter("buffer.clock_micros", p.clock.Load)
	reg.Gauge("buffer.resident_pages", func() float64 { return float64(p.ResidentPages()) })
	reg.Gauge("buffer.frames", func() float64 { return float64(p.totalFrames) })
	reg.Gauge("pool.shard.count", func() float64 { return float64(len(p.shards)) })
	reg.Counter("pool.shard.evict_latch_fails", p.stats.evictLatchFails.Load)
	reg.Counter("pool.shard.locked_gets", p.stats.lockedGets.Load)
	if p.latches != nil {
		p.latches.RegisterMetrics(reg)
	}
}

// cyc reports the attached model's cycle clock (0 without a model),
// for trace timestamps.
func (p *Pool) cyc() uint64 {
	if p.mm != nil {
		return p.mm.Now()
	}
	return 0
}

// Space returns the pool's simulated address space.
func (p *Pool) Space() *memsim.AddressSpace { return p.space }

// PageSize returns the page size in bytes.
func (p *Pool) PageSize() int { return p.pageSize }

// Stats returns a snapshot of the counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Gets:             p.stats.gets.Load(),
		Hits:             p.stats.hits.Load(),
		DemandMisses:     p.stats.demandMisses.Load(),
		PrefetchIssue:    p.stats.prefetchIssue.Load(),
		PrefetchHits:     p.stats.prefetchHits.Load(),
		Evictions:        p.stats.evictions.Load(),
		DirtyWrites:      p.stats.dirtyWrites.Load(),
		Retries:          p.stats.retries.Load(),
		ChecksumFailures: p.stats.checksumFailures.Load(),
		PrefetchFailures: p.stats.prefetchFailures.Load(),
	}
}

// ResetStats zeroes the counters.
func (p *Pool) ResetStats() {
	s := &p.stats
	for _, c := range []*atomic.Uint64{
		&s.gets, &s.hits, &s.demandMisses, &s.prefetchIssue, &s.prefetchHits,
		&s.evictions, &s.dirtyWrites, &s.retries, &s.checksumFailures, &s.prefetchFailures,
		&s.evictLatchFails, &s.lockedGets,
	} {
		c.Store(0)
	}
}

// Clock returns the pool's virtual time in microseconds.
func (p *Pool) Clock() uint64 { return p.clock.Load() }

// clockAdvance moves the virtual clock forward to at least t.
func (p *Pool) clockAdvance(t uint64) {
	for {
		cur := p.clock.Load()
		if t <= cur || p.clock.CompareAndSwap(cur, t) {
			return
		}
	}
}

// AddDelay advances virtual time by d microseconds of consumer-side
// work (e.g. per-page CPU cost during a scan).
func (p *Pool) AddDelay(d uint64) { p.clock.Add(d) }

// AllocPageID reserves a fresh page ID (reusing freed ones first).
func (p *Pool) AllocPageID() uint32 {
	p.allocMu.Lock()
	defer p.allocMu.Unlock()
	if n := len(p.freePIDs); n > 0 {
		pid := p.freePIDs[n-1]
		p.freePIDs = p.freePIDs[:n-1]
		return pid
	}
	pid := p.nextPID
	p.nextPID++
	return pid
}

// MaxPageID returns the highest page ID ever allocated (for iteration
// by invariant checkers).
func (p *Pool) MaxPageID() uint32 {
	p.allocMu.Lock()
	defer p.allocMu.Unlock()
	return p.nextPID - 1
}

// AllocState snapshots the page allocator — the next fresh PID and a
// copy of the free list — so a durable store can persist it in commit
// metadata and hand it back through RestoreAllocState after recovery.
func (p *Pool) AllocState() (next uint32, free []uint32) {
	p.allocMu.Lock()
	defer p.allocMu.Unlock()
	return p.nextPID, append([]uint32(nil), p.freePIDs...)
}

// RestoreAllocState rewinds the allocator to a snapshot taken by
// AllocState. Recovery must call it before any post-restart allocation
// (scavenge's bulkload) so new pages cannot collide with page IDs that
// the replayed tree already occupies.
func (p *Pool) RestoreAllocState(next uint32, free []uint32) {
	p.allocMu.Lock()
	defer p.allocMu.Unlock()
	if next < 1 {
		next = 1 // page 0 stays the nil page
	}
	p.nextPID = next
	p.freePIDs = append(p.freePIDs[:0], free...)
}

// victimLocked selects a frame in sh via the CLOCK algorithm, evicting
// its current occupant if necessary. Caller holds sh.mu.
func (p *Pool) victimLocked(sh *poolShard) (int, error) {
	for pass := 0; pass < 2*len(sh.frames)+1; pass++ {
		i := sh.hand
		f := &sh.frames[i]
		sh.hand = (sh.hand + 1) % len(sh.frames)
		st := f.state.Load()
		if st&frameValidBit == 0 {
			return i, nil
		}
		if st&framePinMask > 0 {
			continue
		}
		if f.ref.Load() {
			f.ref.Store(false)
			continue
		}
		ok, err := p.evictLocked(sh, i)
		if err != nil {
			return 0, err
		}
		if !ok {
			continue // a lock-free pin claimed the frame mid-eviction
		}
		return i, nil
	}
	return 0, errPoolExhausted(len(sh.frames))
}

// evictLocked tries to evict frame i of sh, reporting whether it
// succeeded (a concurrent lock-free pin makes it back off). Caller
// holds sh.mu.
func (p *Pool) evictLocked(sh *poolShard, i int) (bool, error) {
	f := &sh.frames[i]
	pid := f.pid.Load()
	if p.latches != nil && !p.latches.TryLock(pid) {
		// A reader still holds the page latch (it is between its pin
		// CAS and its latch bookkeeping, or vice versa): leave it be.
		p.stats.evictLatchFails.Add(1)
		return false, nil
	}
	wasDirty := f.dirty
	if f.dirty {
		// Delayed write-back: the write is issued at the current time
		// but the consumer does not wait for it. On failure the frame is
		// left valid and dirty so no modified data is silently dropped.
		if _, err := p.writeRetry(pid, f.data); err != nil {
			if p.latches != nil {
				p.latches.Unlock(pid)
			}
			return false, err
		}
		p.stats.dirtyWrites.Add(1)
	}
	// Invalidate: only succeeds while the pin count is zero; a racing
	// lock-free pin beats us by incrementing first, in which case the
	// frame stays resident (its write-back above was merely early).
	st := f.state.Load()
	if st&framePinMask != 0 || !f.state.CompareAndSwap(st, (st&^(frameValidBit|framePinMask))+frameEpochInc) {
		f.dirty = false
		if p.latches != nil {
			p.latches.Unlock(pid)
		}
		return false, nil
	}
	delete(sh.table, pid)
	// Explicitly drop the fast-path entry for the evicted page so a
	// stale slot can never outlive its frame's occupancy.
	sh.fast[pid&(fastSize-1)].CompareAndSwap(packFast(pid, i), 0)
	f.dirty = false
	// A reused frame must never inherit the in-flight completion time
	// of its prior occupant.
	f.readyAt.Store(0)
	p.stats.evictions.Add(1)
	if p.latches != nil {
		p.latches.Unlock(pid)
	}
	if p.tr != nil {
		var dirty uint64
		if wasDirty {
			dirty = 1
		}
		p.tr.Buffer(obs.EvEvict, pid, p.cyc(), p.Clock(), dirty)
	}
	return true, nil
}

// FrameCount returns the pool's capacity in frames.
func (p *Pool) FrameCount() int { return p.totalFrames }

func (p *Pool) fixBusy() {
	if p.mm != nil {
		p.mm.Busy(memsim.CostBufferFix)
	}
}

// Bounded retry policy for transient I/O errors: up to maxIORetries
// reissues, waiting a doubling virtual-time backoff before each
// (100 µs, 200 µs, 400 µs — comparable to a device-retry latency,
// far below a seek). Permanent and checksum errors are never retried:
// the media's answer will not change.
const (
	maxIORetries       = 3
	retryBackoffMicros = 100
)

// noteReadErr classifies a failed store read for the pool's counters.
func (p *Pool) noteReadErr(err error) {
	if errors.Is(err, ErrCorruptPage) {
		p.stats.checksumFailures.Add(1)
	}
}

// readRetry performs a demand read of pid into dst, retrying transient
// errors with backoff. It returns the completion time of the successful
// read, or the last error.
func (p *Pool) readRetry(pid uint32, dst []byte) (uint64, error) {
	backoff := uint64(retryBackoffMicros)
	for attempt := 0; ; attempt++ {
		done, err := p.store.ReadPage(pid, dst, p.Clock())
		if err == nil {
			return done, nil
		}
		p.noteReadErr(err)
		if attempt >= maxIORetries || !errors.Is(err, ErrTransientIO) {
			return 0, err
		}
		p.stats.retries.Add(1)
		p.clock.Add(backoff)
		backoff *= 2
	}
}

// writeRetry is readRetry's write-side counterpart (evictions and
// flushes go through it).
func (p *Pool) writeRetry(pid uint32, src []byte) (uint64, error) {
	backoff := uint64(retryBackoffMicros)
	for attempt := 0; ; attempt++ {
		done, err := p.store.WritePage(pid, src, p.Clock())
		if err == nil {
			return done, nil
		}
		if attempt >= maxIORetries || !errors.Is(err, ErrTransientIO) {
			return 0, err
		}
		p.stats.retries.Add(1)
		p.clock.Add(backoff)
		backoff *= 2
	}
}

// latchMode selects which latch a pin acquires on a latched pool (and
// whether acquisition may block). Pools without a latch table ignore it.
type latchMode int8

const (
	latchS    latchMode = iota // shared, blocking
	latchX                     // exclusive, blocking
	latchTryS                  // shared, non-blocking
	latchTryX                  // exclusive, non-blocking
)

func (m latchMode) exclusive() bool { return m == latchX || m == latchTryX }

// Get pins page pid with the shared latch, reading it from the store on
// a miss, and advances the virtual clock to the read's completion.
func (p *Pool) Get(pid uint32) (Page, error) {
	pg, _, err := p.get(pid, latchS)
	return pg, err
}

// GetX pins page pid with the exclusive latch, blocking until every
// other holder releases. Callers must follow the latch order documented
// in internal/latch (top-down, left-to-right) and must never already
// hold a latch on pid (latches are not reentrant).
func (p *Pool) GetX(pid uint32) (Page, error) {
	pg, _, err := p.get(pid, latchX)
	return pg, err
}

// TryGet pins page pid with the shared latch without blocking on the
// latch; ok=false means the latch was exclusively held (the page was
// not pinned). Acquisitions against the latch order use this form.
func (p *Pool) TryGet(pid uint32) (Page, bool, error) {
	return p.get(pid, latchTryS)
}

// TryGetX is TryGet's exclusive counterpart.
func (p *Pool) TryGetX(pid uint32) (Page, bool, error) {
	return p.get(pid, latchTryX)
}

// get pins page pid, reading it from the store on a miss. The page's
// latch (per mode) is always acquired after the pin and outside the
// shard mutex, so a blocked latch acquisition never stalls the shard:
// the pin alone keeps the frame safe from eviction, and the eviction
// path's TryLock refuses any page with a live latch holder.
func (p *Pool) get(pid uint32, mode latchMode) (Page, bool, error) {
	if pid == 0 {
		return Page{}, false, fmt.Errorf("buffer: Get of nil page")
	}
	p.stats.gets.Add(1)
	p.fixBusy()
	sh := p.shardFor(pid)
	if pg, pinned := p.fastPin(sh, pid); pinned {
		return p.latchPinned(sh, pg, mode)
	}
	p.stats.lockedGets.Add(1)
	latch.SpinLock(&sh.mu)
	if i, ok := sh.table[pid]; ok {
		sh.fast[pid&(fastSize-1)].Store(packFast(pid, i))
		pg := p.pinHitLocked(sh, pid, i)
		sh.mu.Unlock()
		return p.latchPinned(sh, pg, mode)
	}
	i, err := p.victimLocked(sh)
	if err != nil {
		sh.mu.Unlock()
		return Page{}, false, err
	}
	f := &sh.frames[i]
	done, err := p.readRetry(pid, f.data)
	if err != nil {
		// The frame stays invalid (victimLocked left it so, or evict
		// cleared it); a later Get retries the read from scratch.
		sh.mu.Unlock()
		return Page{}, false, err
	}
	p.clockAdvance(done)
	f.pid.Store(pid)
	f.dirty = false
	f.ref.Store(true)
	f.readyAt.Store(0)
	st := f.state.Load()
	f.state.Store((st &^ framePinMask) | frameValidBit | 1)
	sh.table[pid] = i
	sh.fast[pid&(fastSize-1)].Store(packFast(pid, i))
	p.stats.demandMisses.Add(1)
	if p.tr != nil {
		p.tr.Buffer(obs.EvDemandMiss, pid, p.cyc(), p.Clock(), done)
	}
	pg := p.page(sh, pid, i, f)
	sh.mu.Unlock()
	return p.latchPinned(sh, pg, mode)
}

// latchPinned acquires pg's latch per mode after the pin is already
// held (and no shard mutex is). On a try-mode failure the pin is
// released and ok=false is returned; the page stays resident.
func (p *Pool) latchPinned(sh *poolShard, pg Page, mode latchMode) (Page, bool, error) {
	if p.latches == nil {
		return pg, true, nil
	}
	switch mode {
	case latchS:
		p.latches.RLock(pg.ID)
	case latchX:
		p.latches.Lock(pg.ID)
	case latchTryS:
		if !p.latches.TryRLock(pg.ID) {
			p.unpin(&sh.frames[pg.frame])
			return Page{}, false, nil
		}
	case latchTryX:
		if !p.latches.TryLock(pg.ID) {
			p.unpin(&sh.frames[pg.frame])
			return Page{}, false, nil
		}
	}
	pg.excl = mode.exclusive()
	return pg, true, nil
}

func (p *Pool) page(sh *poolShard, pid uint32, i int, f *frame) Page {
	return Page{
		ID: pid, Data: f.data, Addr: p.space.PageAddr(pid),
		frame: i, shard: int32(shardIndex(p, sh)),
	}
}

func shardIndex(p *Pool, sh *poolShard) int {
	// Pointer arithmetic-free shard index: shards is small, and this is
	// off the per-op fast path only on misses, so a linear scan would
	// do; but the hash is cheaper and exact.
	for i := range p.shards {
		if &p.shards[i] == sh {
			return i
		}
	}
	panic("buffer: foreign shard")
}

// fastPin is the lock-free warm path: translate pid through the shard's
// direct-mapped table and pin the frame with a bare state-word CAS.
// It fails (returning ok=false) whenever anything is unusual — slot
// mismatch, invalid frame, in-flight prefetch, frame recycled between
// the slot read and the pin — and the caller falls back to the locked
// path, which owns all the slow-case protocols. The page latch is NOT
// acquired here; the caller latches after the pin (latchPinned).
func (p *Pool) fastPin(sh *poolShard, pid uint32) (Page, bool) {
	packed := sh.fast[pid&(fastSize-1)].Load()
	if uint32(packed>>32) != pid || packed == 0 {
		return Page{}, false
	}
	i := int(packed&framePinMask) - 1
	if i < 0 || i >= len(sh.frames) {
		return Page{}, false
	}
	f := &sh.frames[i]
	for attempt := 0; ; attempt++ {
		st := f.state.Load()
		if st&frameValidBit == 0 || f.readyAt.Load() != 0 {
			return Page{}, false
		}
		if f.state.CompareAndSwap(st, st+1) {
			break
		}
		if attempt >= 8 {
			return Page{}, false
		}
	}
	if f.pid.Load() != pid {
		// The frame was evicted and refilled between the slot read and
		// the pin; release and take the locked path.
		p.unpin(f)
		return Page{}, false
	}
	f.ref.Store(true)
	p.stats.hits.Add(1)
	if p.tr != nil {
		p.tr.Buffer(obs.EvBufferHit, pid, p.cyc(), p.Clock(), 0)
	}
	return p.page(sh, pid, i, f), true
}

// unpin drops one pin from f's state word.
func (p *Pool) unpin(f *frame) { f.state.Add(^uint64(0)) }

// pinHitLocked pins the resident (or in-flight) frame i holding pid.
// Caller holds sh.mu and acquires the page latch after releasing it.
func (p *Pool) pinHitLocked(sh *poolShard, pid uint32, i int) Page {
	f := &sh.frames[i]
	f.state.Add(1)
	f.ref.Store(true)
	waited := uint64(0)
	ra := f.readyAt.Load()
	if now := p.Clock(); ra > now {
		// In-flight prefetch: wait for it.
		waited = ra - now
		p.clockAdvance(ra)
	}
	if ra > 0 {
		p.stats.prefetchHits.Add(1)
		f.readyAt.Store(0)
		if p.tr != nil {
			p.tr.Buffer(obs.EvPrefetchHit, pid, p.cyc(), p.Clock(), waited)
		}
	} else {
		p.stats.hits.Add(1)
		if p.tr != nil {
			p.tr.Buffer(obs.EvBufferHit, pid, p.cyc(), p.Clock(), 0)
		}
	}
	return p.page(sh, pid, i, f)
}

// Prefetch issues an asynchronous read for pid if it is not already
// resident or in flight. A later Get waits only for the remaining
// service time.
//
// Prefetch never propagates I/O failures: a prefetch is a hint, so a
// failed one is dropped (counted in PrefetchFailures) and the frame is
// left unclaimed. The later demand Get re-reads the page — and is the
// point where a real error (corruption, dead sector) surfaces to the
// caller — so a failed prefetch degrades to a demand read instead of
// failing the operation that issued it.
func (p *Pool) Prefetch(pid uint32) error {
	if pid == 0 {
		return nil
	}
	sh := p.shardFor(pid)
	latch.SpinLock(&sh.mu)
	defer sh.mu.Unlock()
	if _, ok := sh.table[pid]; ok {
		return nil
	}
	i, err := p.victimLocked(sh)
	if err != nil {
		p.stats.prefetchFailures.Add(1)
		return nil
	}
	f := &sh.frames[i]
	done, err := p.store.ReadPage(pid, f.data, p.Clock())
	if err != nil {
		p.noteReadErr(err)
		p.stats.prefetchFailures.Add(1)
		return nil
	}
	f.pid.Store(pid)
	f.dirty = false
	f.ref.Store(true)
	f.readyAt.Store(done)
	st := f.state.Load()
	f.state.Store((st &^ framePinMask) | frameValidBit)
	sh.table[pid] = i
	p.stats.prefetchIssue.Add(1)
	if p.tr != nil {
		p.tr.Buffer(obs.EvPrefetchIssue, pid, p.cyc(), p.Clock(), done)
	}
	return nil
}

// PrefetchRun issues prefetches for a run of page IDs, skipping nil
// pages and adjacent duplicates, and capping issuance below the pool
// capacity so a large batch cannot flood the pool and evict its own
// prefetches before they are consumed.
func (p *Pool) PrefetchRun(pids []uint32) error {
	budget := p.totalFrames - 4
	var last uint32
	for _, pid := range pids {
		if pid == 0 || pid == last {
			continue
		}
		last = pid
		if budget <= 0 {
			return nil
		}
		budget--
		if err := p.Prefetch(pid); err != nil {
			return err
		}
	}
	return nil
}

// Contains reports whether pid is resident (or in flight) without
// touching replacement state.
func (p *Pool) Contains(pid uint32) bool {
	sh := p.shardFor(pid)
	sh.mu.Lock()
	_, ok := sh.table[pid]
	sh.mu.Unlock()
	return ok
}

// NewPage allocates a fresh page, pinned and zeroed, without a store
// read, holding the shared latch on latched pools.
func (p *Pool) NewPage() (Page, error) { return p.newPage(latchS) }

// NewPageX is NewPage with the exclusive latch: structural writers use
// it so a new page is born under the same protection as the pages it is
// spliced between. The latch never blocks — the fresh page ID has no
// other holders.
func (p *Pool) NewPageX() (Page, error) { return p.newPage(latchX) }

func (p *Pool) newPage(mode latchMode) (Page, error) {
	pid := p.AllocPageID()
	sh := p.shardFor(pid)
	sh.mu.Lock()
	i, err := p.victimLocked(sh)
	if err != nil {
		sh.mu.Unlock()
		p.allocMu.Lock()
		p.freePIDs = append(p.freePIDs, pid)
		p.allocMu.Unlock()
		return Page{}, err
	}
	f := &sh.frames[i]
	for j := range f.data {
		f.data[j] = 0
	}
	f.pid.Store(pid)
	f.dirty = true
	f.ref.Store(true)
	f.readyAt.Store(0)
	st := f.state.Load()
	f.state.Store((st &^ framePinMask) | frameValidBit | 1)
	sh.table[pid] = i
	sh.fast[pid&(fastSize-1)].Store(packFast(pid, i))
	pg := p.page(sh, pid, i, f)
	sh.mu.Unlock()
	pg, _, err = p.latchPinned(sh, pg, mode)
	return pg, err
}

// Unpin releases a pinned page, optionally marking it dirty. Clean
// unpins are lock-free; dirtying unpins take the shard mutex because
// the dirty flag is part of the eviction protocol.
func (p *Pool) Unpin(pg Page, dirty bool) {
	sh := &p.shards[pg.shard]
	f := &sh.frames[pg.frame]
	st := f.state.Load()
	if st&frameValidBit == 0 || st&framePinMask == 0 || f.pid.Load() != pg.ID {
		// Programmer invariant, deliberately kept as a panic: an Unpin
		// that does not pair with a Get/NewPage on the same handle is a
		// bookkeeping bug in the calling index, never an I/O- or
		// data-dependent condition, and continuing would corrupt pin
		// counts silently.
		panic(fmt.Sprintf("buffer: bad Unpin of page %d", pg.ID))
	}
	if dirty {
		sh.mu.Lock()
		f.dirty = true
		p.unpin(f)
		sh.mu.Unlock()
	} else {
		p.unpin(f)
	}
	if p.latches != nil {
		if pg.excl {
			p.latches.Unlock(pg.ID)
		} else {
			p.latches.RUnlock(pg.ID)
		}
	}
}

// FreePage returns an unpinned page to the allocator and drops its frame.
func (p *Pool) FreePage(pid uint32) error {
	sh := p.shardFor(pid)
	sh.mu.Lock()
	if i, ok := sh.table[pid]; ok {
		f := &sh.frames[i]
		st := f.state.Load()
		if st&framePinMask > 0 {
			sh.mu.Unlock()
			return fmt.Errorf("buffer: FreePage of pinned page %d", pid)
		}
		if !f.state.CompareAndSwap(st, (st&^(frameValidBit|framePinMask))+frameEpochInc) {
			sh.mu.Unlock()
			return fmt.Errorf("buffer: FreePage of pinned page %d", pid)
		}
		delete(sh.table, pid)
		sh.fast[pid&(fastSize-1)].CompareAndSwap(packFast(pid, i), 0)
		f.dirty = false
		f.readyAt.Store(0)
		if p.latches != nil {
			// The pid may be reallocated and refilled into any frame;
			// bump its version so an optimistic reader that sampled the
			// old incarnation can never validate (DESIGN.md §11.6).
			p.latches.Invalidate(pid)
		}
	}
	sh.mu.Unlock()
	p.allocMu.Lock()
	p.freePIDs = append(p.freePIDs, pid)
	p.allocMu.Unlock()
	return nil
}

// FlushAll writes every dirty frame back to the store (pages stay
// resident).
func (p *Pool) FlushAll() error {
	for s := range p.shards {
		sh := &p.shards[s]
		sh.mu.Lock()
		for i := range sh.frames {
			f := &sh.frames[i]
			if f.state.Load()&frameValidBit != 0 && f.dirty {
				if _, err := p.writeRetry(f.pid.Load(), f.data); err != nil {
					sh.mu.Unlock()
					return err
				}
				f.dirty = false
				p.stats.dirtyWrites.Add(1)
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// DropAll flushes and then evicts every unpinned frame — the paper's
// "buffer pool was cleared before every experiment". It fails if any
// page is still pinned.
func (p *Pool) DropAll() error {
	if n := p.PinnedCount(); n > 0 {
		return fmt.Errorf("buffer: DropAll with %d pages pinned", n)
	}
	if err := p.FlushAll(); err != nil {
		return err
	}
	p.invalidateAll(false)
	return nil
}

// DiscardAll invalidates every frame WITHOUT writing dirty pages back.
// It is the recovery-path counterpart of DropAll: after permanent page
// loss, cached copies of a damaged tree must be thrown away rather than
// flushed over whatever the scavenger can still read. It fails if any
// page is still pinned.
func (p *Pool) DiscardAll() error {
	if n := p.PinnedCount(); n > 0 {
		return fmt.Errorf("buffer: DiscardAll with %d pages pinned", n)
	}
	p.invalidateAll(true)
	return nil
}

// invalidateAll drops every unpinned valid frame (clearing dirty state
// when discard is set) and its fast-path entry.
func (p *Pool) invalidateAll(discard bool) {
	for s := range p.shards {
		sh := &p.shards[s]
		sh.mu.Lock()
		for i := range sh.frames {
			f := &sh.frames[i]
			st := f.state.Load()
			if st&frameValidBit == 0 {
				continue
			}
			if st&framePinMask != 0 {
				continue
			}
			if !f.state.CompareAndSwap(st, (st&^(frameValidBit|framePinMask))+frameEpochInc) {
				continue
			}
			pid := f.pid.Load()
			delete(sh.table, pid)
			sh.fast[pid&(fastSize-1)].CompareAndSwap(packFast(pid, i), 0)
			if discard {
				f.dirty = false
			}
			f.readyAt.Store(0)
			if p.latches != nil {
				p.latches.Invalidate(pid)
			}
		}
		sh.mu.Unlock()
	}
}

// PinnedCount reports the number of currently pinned frames (leak
// detection in tests).
func (p *Pool) PinnedCount() int {
	n := 0
	for s := range p.shards {
		sh := &p.shards[s]
		sh.mu.Lock()
		for i := range sh.frames {
			st := sh.frames[i].state.Load()
			if st&frameValidBit != 0 && st&framePinMask > 0 {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// ResidentPages reports how many valid frames the pool holds.
func (p *Pool) ResidentPages() int {
	n := 0
	for s := range p.shards {
		sh := &p.shards[s]
		sh.mu.Lock()
		n += len(sh.table)
		sh.mu.Unlock()
	}
	return n
}
