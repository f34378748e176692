package buffer

import (
	"testing"

	"repro/internal/obs"
)

// TestEvictLatchFailCounter drives the eviction path into a page whose
// latch is held: the CLOCK sweep must skip it via TryLock, count the
// failure in pool.shard.evict_latch_fails, and evict another victim —
// the latched page stays resident.
func TestEvictLatchFailCounter(t *testing.T) {
	p := NewConcurrentPool(NewMemStore(512), 2, 1)
	reg := obs.NewRegistry()
	p.RegisterMetrics(reg)

	a, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	pidA := a.ID
	p.Unpin(a, true)
	b, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(b, true)

	// Hold A's latch the way a reader mid-descent would, then force
	// evictions: the sweep must never pick A.
	p.Latches().Lock(pidA)
	for i := 0; i < 4; i++ {
		pg, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(pg, false)
	}
	p.Latches().Unlock(pidA)

	snap := reg.Snapshot()
	if got := snap.Counters["pool.shard.evict_latch_fails"]; got == 0 {
		t.Error("evictions over a latched page counted no pool.shard.evict_latch_fails")
	}
	// A must still be readable without a store round-trip error; its
	// frame was protected the whole time.
	pg, err := p.Get(pidA)
	if err != nil {
		t.Fatalf("latched page evicted: %v", err)
	}
	p.Unpin(pg, false)
}

// TestLockedGetCounter: a miss (or any fastPin failure) falls back to
// the shard-locked path and counts pool.shard.locked_gets; warm hits
// on the direct-mapped path do not.
func TestLockedGetCounter(t *testing.T) {
	p := NewConcurrentPool(NewMemStore(512), 8, 1)
	reg := obs.NewRegistry()
	p.RegisterMetrics(reg)

	pg, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	pid := pg.ID
	p.Unpin(pg, true)
	if err := p.DropAll(); err != nil {
		t.Fatal(err)
	}

	// Cold get: miss → locked path.
	pg, err = p.Get(pid)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(pg, false)
	after := reg.Snapshot().Counters["pool.shard.locked_gets"]
	if after == 0 {
		t.Fatal("cold Get did not count pool.shard.locked_gets")
	}

	// Warm gets: the fast path must not touch the counter.
	for i := 0; i < 16; i++ {
		pg, err = p.Get(pid)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(pg, false)
	}
	if got := reg.Snapshot().Counters["pool.shard.locked_gets"]; got != after {
		t.Errorf("warm Gets moved locked_gets from %d to %d; the fast path must stay lock-free", after, got)
	}
}

// TestTableLookupCounter: pool.shard.table_lookups counts the pid→frame
// translations made under the shard mutex — a miss makes one, warm Gets
// and optimistic reads of resident pages make none — and the miss path
// that bumps it allocates nothing.
func TestTableLookupCounter(t *testing.T) {
	p := NewConcurrentPool(NewMemStore(512), 2, 1)
	reg := obs.NewRegistry()
	p.RegisterMetrics(reg)
	lookups := func() uint64 { return reg.Snapshot().Counters["pool.shard.table_lookups"] }
	pids := coldPages(t, p, 3)

	pg, err := p.Get(pids[0])
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(pg, false)
	after := lookups()
	if after != 1 {
		t.Fatalf("one cold Get counted %d table_lookups, want 1", after)
	}
	for i := 0; i < 16; i++ {
		if pg, err = p.Get(pids[0]); err != nil {
			t.Fatal(err)
		}
		p.Unpin(pg, false)
		if p.OptSupported() {
			if _, ok := p.ReadOpt(pids[0]); !ok {
				t.Fatal("ReadOpt of a resident page failed")
			}
		}
	}
	if got := lookups(); got != after {
		t.Errorf("warm Gets and ReadOpts moved table_lookups from %d to %d; they must not take the shard mutex", after, got)
	}

	// Three pages round-robin through two frames: every Get misses.
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		pg, err := p.Get(pids[i%3])
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(pg, false)
		i++
	})
	if allocs != 0 {
		t.Errorf("a miss (claim, unlocked read, publish) allocates %v times per run, want 0", allocs)
	}
	if got := lookups(); got < after+200 {
		t.Errorf("200 misses moved table_lookups by %d", got-after)
	}
}

// TestInflightWaitCounter: pool.shard.inflight_waits counts a Get that
// found its page being read in by another goroutine and waited for
// that read; the Get doing the read counts nothing.
func TestInflightWaitCounter(t *testing.T) {
	store := newGateStore(512)
	p := NewConcurrentPool(store, 4, 1)
	reg := obs.NewRegistry()
	p.RegisterMetrics(reg)
	waits := func() uint64 { return reg.Snapshot().Counters["pool.shard.inflight_waits"] }
	x := coldPages(t, p, 1)[0]

	release := store.hold(x)
	defer release()
	a := goGet(p, x)
	await(t, "Get(X) entering the store", store.entered)
	if got := waits(); got != 0 {
		t.Fatalf("the reading Get counted %d inflight_waits", got)
	}
	b := goGet(p, x)
	awaitWaiters(t, p, 1)
	release()
	for _, ch := range []<-chan getResult{a, b} {
		r := await(t, "Get(X)", ch)
		if r.err != nil {
			t.Fatal(r.err)
		}
		p.Unpin(r.pg, false)
	}
	if got := waits(); got != 1 {
		t.Errorf("inflight_waits = %d after one waiting Get, want 1", got)
	}
}
