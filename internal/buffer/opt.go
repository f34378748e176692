package buffer

// Optimistic (latch-free, pin-free) page reads for the concurrent
// serving mode. ReadOpt hands out an unpinned view of a resident page
// together with a validation token; the caller reads page bytes with
// no stores, then calls ValidateOpt before trusting anything derived
// from them. The protocol (DESIGN.md §11.6) is sound because every
// mutation of a valid frame's bytes requires the page's exclusive
// latch (version bump) and every frame recycle bumps the frame epoch,
// so "both snapshots unchanged" implies the bytes were stable for the
// whole window:
//
//  1. resolve pid to a frame by a lock-free probe of the shard's table
//     (no mutex, no pin, no latch)
//  2. snapshot the frame state word; require valid (an in-flight read
//     is not), no virtual-time prefetch pending, and f.pid == pid
//  3. sample the latch version; require no exclusive holder
//  4. caller reads bytes (plain loads only)
//  5. ValidateOpt: latch version unchanged AND frame epoch/valid bits
//     unchanged — else the caller discards everything and restarts
//
// Under the race detector the optimistic path is disabled wholesale
// (optReadsSupported = false): a seqlock read races with writer plain
// stores by construction, and the detector flags the access pattern
// regardless of validation. Race-enabled builds therefore exercise the
// same call sites through the latched fallback path.

import "repro/internal/latch"

// OptPage is an optimistic view of a resident page: a data alias plus
// the validation token. It holds no pin and no latch; the bytes may be
// concurrently overwritten at any time and must not be trusted (or
// used to index beyond bounds checks) until ValidateOpt returns true.
type OptPage struct {
	ID   uint32
	Data []byte

	f *frame
	// fst is the frame state snapshot with the pin field masked out
	// (other readers' pins are fine; an epoch bump or valid-bit clear
	// is not).
	fst uint64
	// ver is the page's latch version at snapshot time.
	ver uint64
	// absent is set only on the view a failed ReadOpt returns; see Miss.
	absent bool
}

// Valid reports whether pg refers to a resolved page (the zero OptPage
// does not).
func (pg OptPage) Valid() bool { return pg.ID != 0 }

// OptStatus is the outcome of one optimistic step: of a failed ReadOpt
// (OptPage.Miss) and, built from those, of a whole descent attempt.
type OptStatus uint8

const (
	// OptRetry: a writer interfered (exclusively latched page, failed
	// validation, torn read). Restarting the descent can succeed.
	OptRetry OptStatus = iota
	// OptDone: the attempt completed and its results are valid.
	OptDone
	// OptAbsent: a page on the path is not resident or is mid-refill.
	// No restart can succeed until someone pays the read, so the caller
	// goes straight to the latched path, which does.
	OptAbsent
)

// Miss says why the ReadOpt that returned pg failed: OptAbsent when the
// page was not resident, OptRetry when it was resident but busy.
func (pg OptPage) Miss() OptStatus {
	if pg.absent {
		return OptAbsent
	}
	return OptRetry
}

// optMaxRestarts bounds how many times an optimistic descent restarts
// before falling back to the latched path (one budget for every tree).
const optMaxRestarts = 8

// SearchOpt is the restart loop around a tree's latch-free point
// lookup: it runs attempt (one descent for key k, whose results count
// only when it reports OptDone) until it completes. An OptRetry
// attempt is counted, backed off and rerun, up to optMaxRestarts times;
// an OptAbsent one fails every restart until someone reads the page
// in, so it leaves the budget unspent. handled=false (counted as one
// fallback) tells the caller to run its latched descent, which pays
// the read or waits the writers out — a writer storm cannot livelock
// a reader.
func (p *Pool) SearchOpt(k uint32, attempt func(k uint32) (tid uint32, found bool, st OptStatus)) (tid uint32, found, handled bool) {
	var b latch.Backoff
	for n := 0; ; n++ {
		tid, found, st := attempt(k)
		if st == OptDone {
			return tid, found, true
		}
		if st == OptAbsent || n == optMaxRestarts {
			break
		}
		p.latches.OptRestart()
		b.Pause()
	}
	p.latches.OptFallback()
	return 0, false, false
}

// OptSupported reports whether this pool can serve optimistic reads:
// it must be a latched (concurrent) pool and the build must not have
// the race detector enabled.
func (p *Pool) OptSupported() bool { return p.latches != nil && !raceEnabled }

// ReadOpt resolves pid to an optimistic page view. ok=false means the
// page is not resident or is mid-refill — the caller should fall back
// to a latched Get, which pays the I/O — or is exclusively latched, in
// which case a retry can succeed; Miss on the returned view tells the
// two apart. No pin or latch is taken on success; pair every use of
// the returned Data with a ValidateOpt check.
func (p *Pool) ReadOpt(pid uint32) (OptPage, bool) {
	if pid == 0 || !p.OptSupported() {
		return OptPage{absent: true}, false
	}
	si, home := p.locate(pid)
	sh := &p.shards[si]
	// A probe that races a table update can miss a resident page; the
	// caller's latched Get, whose lookup is exact, then finds it.
	i, ok := sh.lookup(pid, home)
	if !ok {
		return OptPage{absent: true}, false
	}
	f := &sh.frames[i]
	st := f.state.Load()
	if st&frameValidBit == 0 || f.readyAt.Load() != 0 || f.pid.Load() != pid {
		return OptPage{absent: true}, false
	}
	ver, ok := p.latches.ReadVersion(pid)
	if !ok {
		return OptPage{}, false
	}
	// CLOCK sees pins; this read takes none. Without the reference bit a
	// page served only latch-free would be evicted like a cold one. The
	// store runs once per sweep, so the steady state stays store-free.
	if !f.ref.Load() {
		f.ref.Store(true)
	}
	return OptPage{ID: pid, Data: f.data, f: f, fst: st &^ framePinMask, ver: ver}, true
}

// ValidateOpt reports whether every byte read from pg.Data since
// ReadOpt was untouched: the page's latch version is unchanged (no
// exclusive acquire, so no in-place writes and no eviction handshake)
// and the frame's epoch/valid bits are unchanged (the frame was not
// recycled for another page — which matters when the eviction or
// FreePage version bump landed before ReadOpt sampled the version).
// On false the caller must discard all derived state and restart.
func (p *Pool) ValidateOpt(pg OptPage) bool {
	return p.latches.Validate(pg.ID, pg.ver) && pg.f.state.Load()&^framePinMask == pg.fst
}

// GetXOpt is the one latch of a leaf-only write (DESIGN.md §11.6): pid
// was read from via by a latch-free descent; latch it exclusively and
// then validate via, so that the page returned (pinned; the caller
// unpins) is still the one via routes to and can no longer change.
// ok=false — pid is not resident (reading it in is the structural
// path's business), or via went stale — leaves nothing held. A page
// another writer holds is simply waited for: sampling it first is for
// residency alone. The caller holds no other latch, so the wait cannot
// be part of a cycle.
func (p *Pool) GetXOpt(pid uint32, via OptPage) (Page, bool) {
	if lp, ok := p.ReadOpt(pid); !ok && lp.Miss() == OptAbsent {
		return Page{}, false
	}
	pg, err := p.GetX(pid)
	if err != nil {
		return Page{}, false // the structural path meets it again and reports it
	}
	if !p.ValidateOpt(via) {
		p.Unpin(pg, false)
		return Page{}, false
	}
	return pg, true
}
