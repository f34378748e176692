package buffer

import (
	"fmt"
	"sync"
	"testing"
)

// checkFastConsistent asserts every non-empty table slot in every shard
// points at a valid frame that really holds that pid, that a probe from
// the pid's home slot reaches it, and that the shard's entry count is
// right — the invariants eviction, FreePage and DiscardAll must
// maintain when they remove entries. Call it on a quiet pool (no read
// in flight).
func checkFastConsistent(t *testing.T, p *Pool, when string) {
	t.Helper()
	for s := range p.shards {
		sh := &p.shards[s]
		sh.mu.Lock()
		entries := 0
		for slot := range sh.slots {
			packed := sh.slots[slot].Load()
			if packed == 0 {
				continue
			}
			entries++
			pid := uint32(packed >> 32)
			i := int(uint32(packed)) - 1
			if i < 0 || i >= len(sh.frames) {
				sh.mu.Unlock()
				t.Fatalf("%s: shard %d slot %d points at frame %d, out of range", when, s, slot, i)
			}
			f := &sh.frames[i]
			if f.state.Load()&frameValidBit == 0 {
				sh.mu.Unlock()
				t.Fatalf("%s: shard %d slot for page %d points at an invalid frame", when, s, pid)
			}
			if got := f.pid.Load(); got != pid {
				sh.mu.Unlock()
				t.Fatalf("%s: shard %d slot says page %d but frame holds %d", when, s, pid, got)
			}
			si, home := p.locate(pid)
			if ti, ok := sh.lookup(pid, home); int(si) != s || !ok || ti != i {
				sh.mu.Unlock()
				t.Fatalf("%s: shard %d slot %d for page %d: a probe from (shard %d, slot %d) finds (%d, %v), want frame %d",
					when, s, slot, pid, si, home, ti, ok, i)
			}
		}
		if entries != sh.resident {
			sh.mu.Unlock()
			t.Fatalf("%s: shard %d holds %d entries, counts %d", when, s, entries, sh.resident)
		}
		sh.mu.Unlock()
	}
}

// TestFastPathEvictionInvalidatesSharded churns pages through a small
// sharded pool so every shard evicts constantly, verifying the fast
// table never serves a stale or recycled frame and every Get returns
// the right bytes.
func TestFastPathEvictionInvalidatesSharded(t *testing.T) {
	p := NewConcurrentPool(NewMemStore(512), 16, 4)
	if p.ShardCount() != 4 {
		t.Fatalf("ShardCount = %d, want 4", p.ShardCount())
	}

	const pages = 200
	pids := make([]uint32, pages)
	for i := range pids {
		pg, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		pg.Data[0] = byte(pg.ID)
		pg.Data[1] = byte(pg.ID >> 8)
		pids[i] = pg.ID
		p.Unpin(pg, true)
	}
	checkFastConsistent(t, p, "after fill")

	// Revisit in a stride pattern so hot pages keep re-entering shards
	// whose frames are being recycled underneath them.
	for round := 0; round < 6; round++ {
		for j := 0; j < pages; j++ {
			pid := pids[(j*37+round)%pages]
			pg, err := p.Get(pid)
			if err != nil {
				t.Fatal(err)
			}
			if pg.ID != pid || pg.Data[0] != byte(pid) || pg.Data[1] != byte(pid>>8) {
				t.Fatalf("Get(%d) returned page %d (tag %d,%d)", pid, pg.ID, pg.Data[0], pg.Data[1])
			}
			p.Unpin(pg, false)
		}
		checkFastConsistent(t, p, fmt.Sprintf("after round %d", round))
	}
}

// TestFastPathStaleHitAfterEvict pins a page via the fast path, forces
// its eviction, and checks the next Get re-reads from the store instead
// of pinning the recycled frame.
func TestFastPathStaleHitAfterEvict(t *testing.T) {
	// One shard, two frames: deterministic eviction.
	p := NewConcurrentPool(NewMemStore(512), 2, 1)
	a, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	a.Data[0] = 0xAA
	aID := a.ID
	p.Unpin(a, true)

	// Warm the fast path for A.
	pg, err := p.Get(aID)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(pg, false)

	// Two more pages push A out of the 2-frame shard.
	for i := 0; i < 2; i++ {
		q, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		q.Data[0] = 0xBB
		p.Unpin(q, true)
	}
	if p.Contains(aID) {
		t.Fatal("page A still resident; eviction did not happen")
	}
	checkFastConsistent(t, p, "after evicting A")

	got, err := p.Get(aID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != aID || got.Data[0] != 0xAA {
		t.Fatalf("stale fast-path hit: got page %d tag %#x, want %d tag 0xaa", got.ID, got.Data[0], aID)
	}
	p.Unpin(got, false)
}

// TestFastPathDiscardAllInvalidates checks the checksum-failure discard
// path (DiscardAll) clears every table slot in every shard, so nothing
// can pin a frame whose contents were thrown away.
func TestFastPathDiscardAllInvalidates(t *testing.T) {
	p := NewConcurrentPool(NewMemStore(512), 32, 4)
	var pids []uint32
	for i := 0; i < 24; i++ {
		pg, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		pg.Data[0] = byte(pg.ID)
		pids = append(pids, pg.ID)
		p.Unpin(pg, true)
	}
	// Flush so the store holds the bytes DiscardAll will drop from RAM.
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := p.DiscardAll(); err != nil {
		t.Fatal(err)
	}
	for s := range p.shards {
		for slot := range p.shards[s].slots {
			if packed := p.shards[s].slots[slot].Load(); packed != 0 {
				t.Fatalf("shard %d slot %d survived DiscardAll: %#x", s, slot, packed)
			}
		}
	}
	for _, pid := range pids {
		pg, err := p.Get(pid)
		if err != nil {
			t.Fatal(err)
		}
		if pg.Data[0] != byte(pid) {
			t.Fatalf("page %d reloaded wrong bytes after DiscardAll", pid)
		}
		p.Unpin(pg, false)
	}
}

// TestPoolConcurrentChurn hammers a small sharded pool from several
// goroutines so fast-path pins race frame recycling; every Get must
// return the page it asked for with the bytes it wrote, and no pins may
// leak. Run under -race.
func TestPoolConcurrentChurn(t *testing.T) {
	p := NewConcurrentPool(NewMemStore(512), 24, 4)
	const pages = 96
	pids := make([]uint32, pages)
	for i := range pids {
		pg, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		pg.Data[0] = byte(pg.ID)
		pg.Data[1] = byte(pg.ID >> 8)
		pids[i] = pg.ID
		p.Unpin(pg, true)
	}

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			x := uint32(w + 1)
			for n := 0; n < 4000; n++ {
				x = x*1664525 + 1013904223
				pid := pids[x%pages]
				pg, err := p.Get(pid)
				if err != nil {
					errs <- err
					return
				}
				if pg.ID != pid || pg.Data[0] != byte(pid) || pg.Data[1] != byte(pid>>8) {
					errs <- fmt.Errorf("worker %d: Get(%d) returned page %d (tag %d,%d)", w, pid, pg.ID, pg.Data[0], pg.Data[1])
					p.Unpin(pg, false)
					return
				}
				p.Unpin(pg, false)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := p.PinnedCount(); n != 0 {
		t.Fatalf("%d pins leaked", n)
	}
	checkFastConsistent(t, p, "after concurrent churn")
}

// newPageAt burns fresh page IDs until the next one hashes to home slot
// home of shard si, and allocates that page: how the collision tests
// get pids that share a home slot whatever the table's size is. The
// (shard, slot) pair is one multiplicative hash of the pid, so a given
// pair comes round about once in shards × slots consecutive IDs.
func newPageAt(t *testing.T, p *Pool, si int32, home uint32) Page {
	t.Helper()
	for tries := 0; ; tries++ {
		if s, h := p.locate(p.MaxPageID() + 1); s == si && h == home {
			break
		}
		if tries > 64*len(p.shards)*len(p.shards[0].slots) {
			t.Fatalf("no fresh page ID hashes to shard %d slot %d", si, home)
		}
		p.AllocPageID()
	}
	pg, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	if s, h := p.locate(pg.ID); s != si || h != home {
		t.Fatalf("page %d hashes to (%d, %d), want (%d, %d)", pg.ID, s, h, si, home)
	}
	return pg
}

// TestFastPathCollisionsSharded is the sharded version of the
// collision test: pids that share a home slot in the same shard's table
// — so all but one of them sit displaced along the probe run — must
// still resolve correctly, among enough other pages to lengthen the
// runs.
func TestFastPathCollisionsSharded(t *testing.T) {
	p := NewConcurrentPool(NewMemStore(512), 2048, 4)
	// A quarter of the table's slots as ordinary pages, then sixteen
	// groups of three pages colliding with one of them; tag each page
	// with its pid.
	fill := len(p.shards[0].slots) / 4
	var pids []uint32
	add := func(pg Page) {
		pg.Data[0] = byte(pg.ID)
		pg.Data[1] = byte(pg.ID >> 8)
		pids = append(pids, pg.ID)
		p.Unpin(pg, true)
	}
	for i := 0; i < fill; i++ {
		pg, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		add(pg)
	}
	for g := 0; g < 16; g++ {
		si, home := p.locate(pids[g*fill/16])
		for j := 0; j < 3; j++ {
			add(newPageAt(t, p, si, home))
		}
	}
	for round := 0; round < 3; round++ {
		for _, pid := range pids {
			pg, err := p.Get(pid)
			if err != nil {
				t.Fatal(err)
			}
			if pg.ID != pid || pg.Data[0] != byte(pid) || pg.Data[1] != byte(pid>>8) {
				t.Fatalf("collision mix-up: want %d, got %d (tag %d,%d)", pid, pg.ID, pg.Data[0], pg.Data[1])
			}
			p.Unpin(pg, false)
		}
	}
	checkFastConsistent(t, p, "after collision rounds")
}
