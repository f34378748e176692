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

// poolStats is the backing for Stats: per-P striped counters, so they
// stay exact when shards run concurrently, identical when they do not,
// and a warm Get counts itself without writing a cache line another
// processor writes.
type poolStats struct {
	gets, hits, demandMisses    obs.Counter
	prefetchIssue, prefetchHits obs.Counter
	evictions, dirtyWrites      obs.Counter
	retries                     obs.Counter
	checksumFailures            obs.Counter
	prefetchFailures            obs.Counter
	// Contention signals (pool.shard.* metrics). evictLatchFails counts
	// CLOCK victims skipped because a latch holder was present (the
	// eviction TryLock refusing to wait); lockedGets counts Gets that
	// fell off the lock-free fast path onto the shard mutex.
	evictLatchFails obs.Counter
	lockedGets      obs.Counter
	// inflightWaits counts Gets that found their page being read in by
	// another goroutine and waited for that read; tableLookups counts
	// pid→frame translations made under a shard mutex (the lock-free
	// lookup missed, or Prefetch is about to claim a frame).
	inflightWaits obs.Counter
	tableLookups  obs.Counter
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
// mutex, and pid→frame table; page IDs hash to shards. NewPool
// builds a single shard, which preserves the exact single-threaded
// CLOCK schedule of the sequential simulations; NewConcurrentPool
// spreads frames over several shards and attaches a per-page latch
// table for the concurrent serving mode.
type Pool struct {
	store    Store
	pageSize int
	shards   []poolShard
	// shardShift converts a hashed pid to a shard index (32 means one
	// shard: every page hashes to shard 0); slotShift converts the hash
	// bits below those to a home slot in the shard's table (see locate).
	shardShift  uint32
	slotShift   uint32
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
	frames []frame
	// slots is the shard's pid→frame table: open addressing with linear
	// probing over atomic words, each pid<<32 | frameIdx+1 (0 = empty),
	// at least twice as many as the shard has frames, so a probe ends at
	// an empty slot after a step or two. Writers (insert, remove) hold
	// mu; fastPin, ReadOpt and Prefetch probe it with no lock and
	// validate what they find against the frame (state word, pid,
	// epoch). A lock-free probe that races a remove's back-shift can
	// miss an entry that is there — never find one that was not — and a
	// miss goes to the mutex path, whose probe is exact.
	slots []atomic.Uint64

	mu sync.Mutex
	// loaded is broadcast (under mu) whenever an in-flight read of this
	// shard ends, published or abandoned.
	loaded sync.Cond
	hand   int
	// resident counts the table's entries: valid frames plus in-flight
	// ones.
	resident int
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
	// loading marks an in-flight read (guarded by the shard mutex): the
	// frame is claimed for pid and in the table, so a second getter of
	// the page finds it; its valid bit is clear, so nothing can pin or
	// optimistically read it; and victimLocked passes over it, so the
	// buffer the unlocked read is filling is nobody else's.
	loading bool
}

func packSlot(pid uint32, idx int) uint64 { return uint64(pid)<<32 | uint64(idx+1) }

// locate hashes pid once: the top bits of the product pick the shard
// and the bits right below them the home slot in that shard's table, so
// (shard, slot) together are one multiplicative hash of the pid.
func (p *Pool) locate(pid uint32) (si int32, home uint32) {
	h := pid * 0x9E3779B1
	return int32(h >> p.shardShift), h << (32 - p.shardShift) >> p.slotShift
}

// lookup probes the table for pid from its home slot. Exact under mu;
// without it, see poolShard.slots.
func (sh *poolShard) lookup(pid, home uint32) (int, bool) {
	mask := uint32(len(sh.slots) - 1)
	for s, n := home, 0; n < len(sh.slots); s, n = (s+1)&mask, n+1 {
		w := sh.slots[s].Load()
		if w == 0 {
			break
		}
		if uint32(w>>32) == pid {
			return int(uint32(w)) - 1, true
		}
	}
	return 0, false
}

// insert enters pid→frame i. Caller holds sh.mu and knows pid is not in
// the table.
func (sh *poolShard) insert(pid, home uint32, i int) {
	mask := uint32(len(sh.slots) - 1)
	s := home
	for sh.slots[s].Load() != 0 {
		s = (s + 1) & mask
	}
	sh.slots[s].Store(packSlot(pid, i))
	sh.resident++
}

// removeLocked deletes pid's entry, if any, and closes the gap by
// shifting back the entries of the run behind it that probed past the
// gap, so probes keep ending at the first empty slot with no
// tombstones to clean up. Caller holds sh.mu.
func (p *Pool) removeLocked(sh *poolShard, pid uint32) {
	mask := uint32(len(sh.slots) - 1)
	_, gap := p.locate(pid)
	for {
		w := sh.slots[gap].Load()
		if w == 0 {
			return
		}
		if uint32(w>>32) == pid {
			break
		}
		gap = (gap + 1) & mask
	}
	for s := (gap + 1) & mask; ; s = (s + 1) & mask {
		w := sh.slots[s].Load()
		if w == 0 {
			break
		}
		// The entry may move into the gap unless its home lies
		// cyclically in (gap, s]: then a probe for it would start past
		// the gap and never see it there.
		if _, h := p.locate(uint32(w >> 32)); (s-h)&mask < (s-gap)&mask {
			continue
		}
		sh.slots[gap].Store(w)
		gap = s
	}
	sh.slots[gap].Store(0)
	sh.resident--
}

// NewPool creates a single-shard pool with the given number of frames —
// the configuration every sequential simulation uses; its replacement
// schedule and accounting are identical to the pre-sharding pool.
func NewPool(store Store, frames int) *Pool {
	return newPool(store, frames, 1, false)
}

// NewConcurrentPool creates a pool whose frames are spread over shards
// (rounded up to a power of two) with a per-page latch table attached.
// Gets and Unpins of warm pages are lock-free; misses and evictions
// take only their shard's mutex, and not across the page read.
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
	// Table size: the power of two at or above twice the largest shard's
	// frame count (load factor 1/4 to 1/2), the same for every shard so
	// that one shift serves them all.
	slots := 2
	for slots < 2*(base+1) {
		slots <<= 1
	}
	p.slotShift = 32 - uint32(log2(slots))
	for s := range p.shards {
		cnt := base
		if s < extra {
			cnt++
		}
		sh := &p.shards[s]
		sh.loaded.L = &sh.mu
		sh.frames = make([]frame, cnt)
		sh.slots = make([]atomic.Uint64, slots)
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
	reg.Counter("pool.shard.inflight_waits", p.stats.inflightWaits.Load)
	reg.Counter("pool.shard.table_lookups", p.stats.tableLookups.Load)
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
	for _, c := range []*obs.Counter{
		&s.gets, &s.hits, &s.demandMisses, &s.prefetchIssue, &s.prefetchHits,
		&s.evictions, &s.dirtyWrites, &s.retries, &s.checksumFailures, &s.prefetchFailures,
		&s.evictLatchFails, &s.lockedGets, &s.inflightWaits, &s.tableLookups,
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
// its current occupant if necessary. A frame with a read in flight is
// passed over like a pinned one. Caller holds sh.mu.
func (p *Pool) victimLocked(sh *poolShard) (int, error) {
	for pass := 0; pass < 2*len(sh.frames)+1; pass++ {
		i := sh.hand
		f := &sh.frames[i]
		sh.hand = (sh.hand + 1) % len(sh.frames)
		st := f.state.Load()
		if st&frameValidBit == 0 {
			if f.loading {
				continue
			}
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
	p.removeLocked(sh, pid)
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

// TryGetX pins page pid with the exclusive latch without blocking on
// the latch; ok=false means the latch was held (the page was not
// pinned). Acquisitions against the latch order use this form.
func (p *Pool) TryGetX(pid uint32) (Page, bool, error) {
	return p.get(pid, latchTryX)
}

// get pins page pid, reading it from the store on a miss. The page's
// latch (per mode) is always acquired after the pin and outside the
// shard mutex, so a blocked latch acquisition never stalls the shard:
// the pin alone keeps the frame safe from eviction, and the eviction
// path's TryLock refuses any page with a live latch holder.
//
// The store read of a miss runs with no lock held: under sh.mu the miss
// evicts a victim and claims its frame (claimLocked), then reads
// unlocked, then takes sh.mu again to publish the frame or, on error,
// to give the claim up — so other pages of the shard are served while
// the read is out, and a second Get of the same page waits for it.
func (p *Pool) get(pid uint32, mode latchMode) (Page, bool, error) {
	if pid == 0 {
		return Page{}, false, fmt.Errorf("buffer: Get of nil page")
	}
	p.stats.gets.Add(1)
	p.fixBusy()
	si, home := p.locate(pid)
	sh := &p.shards[si]
	if pg, pinned := p.fastPin(sh, si, pid, home); pinned {
		return p.latchPinned(sh, pg, mode)
	}
	p.stats.lockedGets.Add(1)
	latch.SpinLock(&sh.mu)
	i, hit, err := p.claimLocked(sh, pid, home, true)
	if err != nil {
		sh.mu.Unlock()
		return Page{}, false, err
	}
	if hit {
		pg := p.pinHitLocked(sh, si, pid, i)
		sh.mu.Unlock()
		return p.latchPinned(sh, pg, mode)
	}
	f := &sh.frames[i]
	sh.mu.Unlock()
	done, err := p.readRetry(pid, f.data)
	latch.SpinLock(&sh.mu)
	if err != nil {
		// The claim is given up and the frame stays invalid; a later Get
		// (or a waiter woken now) retries the read from scratch.
		p.unclaimLocked(sh, f, pid)
		sh.mu.Unlock()
		return Page{}, false, err
	}
	p.clockAdvance(done)
	p.publishLocked(sh, f, 0, 1)
	p.stats.demandMisses.Add(1)
	if p.tr != nil {
		p.tr.Buffer(obs.EvDemandMiss, pid, p.cyc(), p.Clock(), done)
	}
	pg := p.page(si, pid, i, f)
	sh.mu.Unlock()
	return p.latchPinned(sh, pg, mode)
}

// claimLocked translates pid under sh.mu. hit=true: frame i holds the
// page — resident, or with wait unset possibly still in flight. With
// wait set a page found in flight is waited for and looked up again, so
// the caller sees the outcome of that one read: the page, or (the read
// failed) no entry, in which case it claims like any other miss.
// hit=false: the page had no entry and frame i, its previous occupant
// evicted, is now claimed for it: in the table (findable), not valid
// and marked loading (not evictable). The caller reads the page into
// the frame's buffer with sh.mu released, then publishes or unclaims.
func (p *Pool) claimLocked(sh *poolShard, pid, home uint32, wait bool) (i int, hit bool, err error) {
	for {
		p.stats.tableLookups.Add(1)
		i, ok := sh.lookup(pid, home)
		if !ok {
			break
		}
		if !wait || !sh.frames[i].loading {
			return i, true, nil
		}
		p.stats.inflightWaits.Add(1)
		sh.loaded.Wait()
	}
	i, err = p.victimLocked(sh)
	if err != nil {
		return 0, false, err
	}
	f := &sh.frames[i]
	f.pid.Store(pid)
	f.loading = true
	sh.insert(pid, home, i)
	return i, false, nil
}

// publishLocked ends f's in-flight read successfully: the frame turns
// valid with the given pin count and virtual completion time, and
// waiters are woken. Caller holds sh.mu.
func (p *Pool) publishLocked(sh *poolShard, f *frame, readyAt, pins uint64) {
	f.dirty = false
	f.ref.Store(true)
	f.readyAt.Store(readyAt)
	f.state.Store((f.state.Load() &^ framePinMask) | frameValidBit | pins)
	f.loading = false
	sh.loaded.Broadcast()
}

// unclaimLocked ends f's in-flight read of pid unsuccessfully: the
// entry goes, the frame is free for any victim search, and waiters are
// woken to retry for themselves. Caller holds sh.mu.
func (p *Pool) unclaimLocked(sh *poolShard, f *frame, pid uint32) {
	p.removeLocked(sh, pid)
	f.loading = false
	sh.loaded.Broadcast()
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
	case latchTryX:
		if !p.latches.TryLock(pg.ID) {
			p.unpin(&sh.frames[pg.frame])
			return Page{}, false, nil
		}
	}
	pg.excl = mode.exclusive()
	return pg, true, nil
}

func (p *Pool) page(si int32, pid uint32, i int, f *frame) Page {
	return Page{
		ID: pid, Data: f.data, Addr: p.space.PageAddr(pid),
		frame: i, shard: si,
	}
}

// fastPin is the lock-free warm path: translate pid through the shard's
// table with no lock and pin the frame with a bare state-word CAS.
// It fails (returning ok=false) whenever anything is unusual — no entry
// seen, invalid or in-flight frame, virtual-time prefetch pending, frame
// recycled between the probe and the pin — and the caller falls back to
// the locked path, which owns all the slow-case protocols. The page
// latch is NOT acquired here; the caller latches after the pin
// (latchPinned).
func (p *Pool) fastPin(sh *poolShard, si int32, pid, home uint32) (Page, bool) {
	i, ok := sh.lookup(pid, home)
	if !ok {
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
		// The frame was evicted and refilled between the probe and the
		// pin; release and take the locked path.
		p.unpin(f)
		return Page{}, false
	}
	f.ref.Store(true)
	p.stats.hits.Add(1)
	if p.tr != nil {
		p.tr.Buffer(obs.EvBufferHit, pid, p.cyc(), p.Clock(), 0)
	}
	return p.page(si, pid, i, f), true
}

// unpin drops one pin from f's state word.
func (p *Pool) unpin(f *frame) { f.state.Add(^uint64(0)) }

// pinHitLocked pins the resident frame i holding pid (its read may
// still be pending in virtual time, never in real time). Caller holds
// sh.mu and acquires the page latch after releasing it.
func (p *Pool) pinHitLocked(sh *poolShard, si int32, pid uint32, i int) Page {
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
	return p.page(si, pid, i, f)
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
//
// Asynchronous is in virtual time only: the store read runs in the
// caller, with the frame claimed and no lock held, as in get.
func (p *Pool) Prefetch(pid uint32) error {
	if pid == 0 {
		return nil
	}
	si, home := p.locate(pid)
	sh := &p.shards[si]
	if _, ok := sh.lookup(pid, home); ok {
		return nil
	}
	latch.SpinLock(&sh.mu)
	i, hit, err := p.claimLocked(sh, pid, home, false)
	sh.mu.Unlock()
	if err != nil {
		p.stats.prefetchFailures.Add(1)
		return nil
	}
	if hit {
		return nil
	}
	f := &sh.frames[i]
	done, err := p.store.ReadPage(pid, f.data, p.Clock())
	latch.SpinLock(&sh.mu)
	if err != nil {
		p.unclaimLocked(sh, f, pid)
		sh.mu.Unlock()
		p.noteReadErr(err)
		p.stats.prefetchFailures.Add(1)
		return nil
	}
	p.publishLocked(sh, f, done, 0)
	p.stats.prefetchIssue.Add(1)
	if p.tr != nil {
		p.tr.Buffer(obs.EvPrefetchIssue, pid, p.cyc(), p.Clock(), done)
	}
	sh.mu.Unlock()
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
	si, home := p.locate(pid)
	sh := &p.shards[si]
	sh.mu.Lock()
	_, ok := sh.lookup(pid, home)
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
	si, home := p.locate(pid)
	sh := &p.shards[si]
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
	sh.insert(pid, home, i)
	pg := p.page(si, pid, i, f)
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
	si, home := p.locate(pid)
	sh := &p.shards[si]
	sh.mu.Lock()
	if i, ok := sh.lookup(pid, home); ok {
		f := &sh.frames[i]
		st := f.state.Load()
		if st&framePinMask > 0 || f.loading {
			sh.mu.Unlock()
			return fmt.Errorf("buffer: FreePage of pinned page %d", pid)
		}
		if !f.state.CompareAndSwap(st, (st&^(frameValidBit|framePinMask))+frameEpochInc) {
			sh.mu.Unlock()
			return fmt.Errorf("buffer: FreePage of pinned page %d", pid)
		}
		p.removeLocked(sh, pid)
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
// when discard is set) and its table entry.
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
			p.removeLocked(sh, pid)
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
		n += sh.resident
		sh.mu.Unlock()
	}
	return n
}
