package buffer

import (
	"testing"

	"repro/internal/disksim"
)

func newDiskPool(t testing.TB, frames, disks int) *Pool {
	t.Helper()
	arr, err := disksim.New(disksim.DefaultConfig(disks, 4096))
	if err != nil {
		t.Fatal(err)
	}
	return NewPool(NewDiskStore(arr), frames)
}

// frameOf looks up the frame currently holding pid (white-box).
// NewPool builds exactly one shard, so shards[0] covers every page.
func frameOf(t *testing.T, p *Pool, pid uint32) *frame {
	t.Helper()
	sh := &p.shards[0]
	_, home := p.locate(pid)
	sh.mu.Lock()
	i, ok := sh.lookup(pid, home)
	sh.mu.Unlock()
	if !ok {
		t.Fatalf("page %d not resident", pid)
	}
	return &sh.frames[i]
}

// TestEvictClearsReadyAt is the regression test for stale in-flight
// completion times: a frame that held a prefetched-but-never-consumed
// page must not carry its readyAt into the next occupant, which would
// stall an unrelated Get and count a phantom prefetch hit.
func TestEvictClearsReadyAt(t *testing.T) {
	p := newDiskPool(t, 2, 1)

	// Materialize two pages on disk.
	a, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(a, true)
	b, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(b, true)
	if err := p.DropAll(); err != nil {
		t.Fatal(err)
	}

	// Prefetch A: its frame is in flight with a future completion time.
	if err := p.Prefetch(a.ID); err != nil {
		t.Fatal(err)
	}
	if f := frameOf(t, p, a.ID); f.readyAt.Load() <= p.Clock() {
		t.Fatalf("prefetch should be in flight: readyAt=%d clock=%d", f.readyAt.Load(), p.Clock())
	}

	// Evict the in-flight frame without ever consuming the prefetch.
	if err := p.DropAll(); err != nil {
		t.Fatal(err)
	}
	for i := range p.shards[0].frames {
		if ra := p.shards[0].frames[i].readyAt.Load(); ra != 0 {
			t.Fatalf("frame %d kept stale readyAt=%d after DropAll", i, ra)
		}
	}

	// Same through the CLOCK eviction path.
	if err := p.Prefetch(a.ID); err != nil {
		t.Fatal(err)
	}
	pgB, err := p.Get(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(pgB, false)
	pgB2, err := p.Get(b.ID) // force A's frame through victim()
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(pgB2, false)
	for i := range p.shards[0].frames {
		f := &p.shards[0].frames[i]
		if f.state.Load()&frameValidBit == 0 && f.readyAt.Load() != 0 {
			t.Fatalf("evicted frame %d kept stale readyAt=%d", i, f.readyAt.Load())
		}
	}

	// And through FreePage.
	if err := p.DropAll(); err != nil {
		t.Fatal(err)
	}
	if err := p.Prefetch(a.ID); err != nil {
		t.Fatal(err)
	}
	if err := p.FreePage(a.ID); err != nil {
		t.Fatal(err)
	}
	for i := range p.shards[0].frames {
		f := &p.shards[0].frames[i]
		if f.state.Load()&frameValidBit == 0 && f.readyAt.Load() != 0 {
			t.Fatalf("freed frame %d kept stale readyAt=%d", i, f.readyAt.Load())
		}
	}

	// A phantom prefetch hit would show up here: B was never prefetched,
	// so re-getting it must count plain hits only.
	before := p.Stats()
	pg, err := p.Get(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(pg, false)
	pg, err = p.Get(b.ID)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(pg, false)
	d := p.Stats()
	if d.PrefetchHits != before.PrefetchHits {
		t.Fatalf("phantom prefetch hit: %d -> %d", before.PrefetchHits, d.PrefetchHits)
	}
}

// TestFastPathCollisions drives pages whose IDs share a home slot in
// the pid→frame table and checks every Get still resolves to the right
// page.
func TestFastPathCollisions(t *testing.T) {
	p := newMemPool(600)
	pg, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	si, home := p.locate(pg.ID)
	var pids []uint32
	for i := 0; i < 3; i++ {
		if i > 0 {
			// Burns page IDs up to the next one with the same home slot.
			pg = newPageAt(t, p, si, home)
		}
		pg.Data[0] = byte(pg.ID)
		p.Unpin(pg, true)
		pids = append(pids, pg.ID)
		// Keep other pages resident around the colliding ones.
		for j := 0; j < len(p.shards[0].slots)/16; j++ {
			q, err := p.NewPage()
			if err != nil {
				t.Fatal(err)
			}
			p.Unpin(q, false)
		}
	}
	for round := 0; round < 4; round++ {
		for _, pid := range pids {
			pg, err := p.Get(pid)
			if err != nil {
				t.Fatal(err)
			}
			if pg.ID != pid || pg.Data[0] != byte(pid) {
				t.Fatalf("fast path returned wrong page: want %d, got %d (tag %d)", pid, pg.ID, pg.Data[0])
			}
			p.Unpin(pg, false)
		}
	}
}

// TestPoolGetHitAllocs asserts the allocation-free hot path: pinning
// and unpinning a resident page must not allocate.
func TestPoolGetHitAllocs(t *testing.T) {
	p := newMemPool(16)
	pg, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	pid := pg.ID
	p.Unpin(pg, false)

	allocs := testing.AllocsPerRun(1000, func() {
		pg, err := p.Get(pid)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(pg, false)
	})
	if allocs != 0 {
		t.Fatalf("warm Get+Unpin allocates %.1f objects/op, want 0", allocs)
	}
}

func BenchmarkPoolGetHit(b *testing.B) {
	p := newMemPool(16)
	pg, err := p.NewPage()
	if err != nil {
		b.Fatal(err)
	}
	pid := pg.ID
	p.Unpin(pg, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg, err := p.Get(pid)
		if err != nil {
			b.Fatal(err)
		}
		p.Unpin(pg, false)
	}
}

// BenchmarkPoolGetHitSpread spreads warm Gets over many resident pages
// (three quarters of the pool) instead of one.
func BenchmarkPoolGetHitSpread(b *testing.B) {
	p := newMemPool(256)
	pids := make([]uint32, 192)
	for i := range pids {
		pg, err := p.NewPage()
		if err != nil {
			b.Fatal(err)
		}
		pids[i] = pg.ID
		p.Unpin(pg, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pg, err := p.Get(pids[i%len(pids)])
		if err != nil {
			b.Fatal(err)
		}
		p.Unpin(pg, false)
	}
}
