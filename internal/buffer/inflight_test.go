package buffer

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// stepTimeout bounds every step of the in-flight tests that must
// complete: a step that would hang on a lock held across a store read
// fails the test instead.
const stepTimeout = 5 * time.Second

// gateStore is a MemStore whose reads of chosen pages block inside
// ReadPage until the test releases them, and whose reads can be made to
// fail. It counts reads per page.
type gateStore struct {
	*MemStore
	mu      sync.Mutex
	gates   map[uint32]chan struct{} // closed to let the page's held read go
	fail    map[uint32]error         // returned by every read of the page while set
	failN   map[uint32]int           // with fail: only the next N reads fail
	reads   map[uint32]int
	entered chan uint32 // one send per gated read, once it is inside ReadPage
}

func newGateStore(pageSize int) *gateStore {
	return &gateStore{
		MemStore: NewMemStore(pageSize),
		gates:    map[uint32]chan struct{}{},
		fail:     map[uint32]error{},
		failN:    map[uint32]int{},
		reads:    map[uint32]int{},
		entered:  make(chan uint32, 16), // more than any test has gated reads at once
	}
}

// hold makes the next read of pid block until the returned function is
// called; later reads of pid pass.
func (s *gateStore) hold(pid uint32) (release func()) {
	g := make(chan struct{})
	s.mu.Lock()
	s.gates[pid] = g
	s.mu.Unlock()
	var once sync.Once
	return func() { once.Do(func() { close(g) }) }
}

func (s *gateStore) ReadPage(pid uint32, dst []byte, now uint64) (uint64, error) {
	s.mu.Lock()
	s.reads[pid]++
	g := s.gates[pid]
	delete(s.gates, pid)
	s.mu.Unlock()
	if g != nil {
		s.entered <- pid
		<-g
	}
	s.mu.Lock()
	err := s.fail[pid]
	if n, limited := s.failN[pid]; err != nil && limited {
		if n == 0 {
			err = nil
		} else {
			s.failN[pid] = n - 1
		}
	}
	s.mu.Unlock()
	if err != nil {
		return now, &PageError{PID: pid, Op: "read", Err: err}
	}
	return s.MemStore.ReadPage(pid, dst, now)
}

func (s *gateStore) readsOf(pid uint32) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reads[pid]
}

// coldPages writes n tagged pages through p and drops them from it, so
// each is on the store and none is resident.
func coldPages(t *testing.T, p *Pool, n int) []uint32 {
	t.Helper()
	pids := make([]uint32, n)
	for i := range pids {
		pg, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		tagPage(pg)
		pids[i] = pg.ID
		p.Unpin(pg, true)
	}
	if err := p.DropAll(); err != nil {
		t.Fatal(err)
	}
	return pids
}

func tagPage(pg Page) {
	pg.Data[0], pg.Data[1], pg.Data[len(pg.Data)-1] = byte(pg.ID), byte(pg.ID>>8), byte(pg.ID)
}

func tagOK(pg Page, pid uint32) bool {
	return pg.ID == pid && pg.Data[0] == byte(pid) && pg.Data[1] == byte(pid>>8) && pg.Data[len(pg.Data)-1] == byte(pid)
}

type getResult struct {
	pg  Page
	err error
}

// goGet runs Get(pid) on its own goroutine.
func goGet(p *Pool, pid uint32) <-chan getResult {
	ch := make(chan getResult, 1)
	go func() {
		pg, err := p.Get(pid)
		ch <- getResult{pg, err}
	}()
	return ch
}

// within runs step and fails the test if it has not returned in time.
func within(t *testing.T, what string, step func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		step()
	}()
	select {
	case <-done:
	case <-time.After(stepTimeout):
		t.Fatalf("%s did not complete within %v: it waits for a lock held across a store read", what, stepTimeout)
	}
}

func await[T any](t *testing.T, what string, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(stepTimeout):
		t.Fatalf("%s: nothing within %v", what, stepTimeout)
		panic("unreachable")
	}
}

// awaitWaiters returns once n Gets have found their page in flight and
// gone to wait for it.
func awaitWaiters(t *testing.T, p *Pool, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(stepTimeout); p.stats.inflightWaits.Load() < n; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("inflight_waits = %d, want %d: the second Get of an in-flight page is not waiting for its read",
				p.stats.inflightWaits.Load(), n)
		}
	}
}

// TestInflightReadLeavesShardOpen: while one Get's store read is out,
// the rest of its shard — the only shard — is served: another cold
// page, a resident page pinned and read optimistically. The page in
// flight is absent to ReadOpt, and a second Get of it waits for the one
// read and returns the same verified bytes.
func TestInflightReadLeavesShardOpen(t *testing.T) {
	store := newGateStore(512)
	p := NewConcurrentPool(store, 8, 1)
	pids := coldPages(t, p, 3)
	x, y, z := pids[0], pids[1], pids[2]
	if pg, err := p.Get(z); err != nil {
		t.Fatal(err)
	} else {
		p.Unpin(pg, false)
	}
	before := store.readsOf(x)

	release := store.hold(x)
	defer release()
	a := goGet(p, x)
	await(t, "Get(X) entering the store", store.entered)

	within(t, "Get(Y) of another cold page", func() {
		pg, err := p.Get(y)
		if err != nil || !tagOK(pg, y) {
			t.Errorf("Get(Y) = page %d, %v", pg.ID, err)
			return
		}
		p.Unpin(pg, false)
	})
	within(t, "Get(Z) of a resident page", func() {
		pg, err := p.Get(z)
		if err != nil || !tagOK(pg, z) {
			t.Errorf("Get(Z) = page %d, %v", pg.ID, err)
			return
		}
		p.Unpin(pg, false)
	})
	within(t, "ReadOpt of Z and X", func() {
		if !p.OptSupported() {
			return // race build: ReadOpt declines everything
		}
		if v, ok := p.ReadOpt(z); !ok || v.Data[0] != byte(z) || !p.ValidateOpt(v) {
			t.Errorf("ReadOpt(Z) of a resident page: ok=%v", ok)
		}
		if v, ok := p.ReadOpt(x); ok || v.Miss() != OptAbsent {
			t.Errorf("ReadOpt(X) of a page in flight: ok=%v miss=%v, want OptAbsent", ok, v.Miss())
		}
	})
	if !p.Contains(x) {
		t.Error("page in flight is not in the table: a second getter could not find it")
	}
	if n := p.PinnedCount(); n != 0 {
		t.Errorf("%d pages pinned with only a read in flight", n)
	}

	b := goGet(p, x)
	awaitWaiters(t, p, 1)
	select {
	case r := <-b:
		t.Fatalf("second Get(X) returned (%v) while the read was still out", r.err)
	default:
	}
	release()
	for _, ch := range []<-chan getResult{a, b} {
		r := await(t, "Get(X)", ch)
		if r.err != nil || !tagOK(r.pg, x) {
			t.Fatalf("Get(X) = page %d, %v", r.pg.ID, r.err)
		}
		p.Unpin(r.pg, false)
	}
	if n := store.readsOf(x) - before; n != 1 {
		t.Errorf("two Gets of cold X made %d store reads, want 1", n)
	}
	if n := p.PinnedCount(); n != 0 {
		t.Errorf("%d pins leaked", n)
	}
	checkFastConsistent(t, p, "after the in-flight read")
}

// TestInflightReadFails: an in-flight read that fails — permanently, or
// transiently more often than the retry budget — gives its Get the
// error, lets a waiting Get retry for itself (and get that read's
// error, or the page), leaves the frame reusable and nothing pinned,
// and the next Get reads again.
func TestInflightReadFails(t *testing.T) {
	for _, tc := range []struct {
		name  string
		err   error
		failN int // 0: every read fails until the fault is cleared
	}{
		{"permanent", ErrPermanentIO, 0},
		{"transient-past-retries", ErrTransientIO, maxIORetries + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := newGateStore(512)
			p := NewConcurrentPool(store, 2, 1)
			pids := coldPages(t, p, 3)
			x := pids[0]
			store.mu.Lock()
			store.fail[x] = tc.err
			if tc.failN > 0 {
				store.failN[x] = tc.failN
			}
			store.mu.Unlock()
			before := store.readsOf(x)

			release := store.hold(x)
			defer release()
			a := goGet(p, x)
			await(t, "Get(X) entering the store", store.entered)
			b := goGet(p, x)
			awaitWaiters(t, p, 1)
			release()

			if r := await(t, "first Get(X)", a); !errors.Is(r.err, tc.err) {
				t.Fatalf("Get(X) whose read failed returned page %d, %v; want %v", r.pg.ID, r.err, tc.err)
			}
			// The waiter retried from scratch: the permanent fault fails
			// its read too; the transient one was used up by the first
			// Get's retries, so its read succeeds.
			r := await(t, "waiting Get(X)", b)
			if tc.failN == 0 {
				if !errors.Is(r.err, tc.err) {
					t.Fatalf("waiting Get(X) returned page %d, %v; want %v", r.pg.ID, r.err, tc.err)
				}
			} else {
				if r.err != nil || !tagOK(r.pg, x) {
					t.Fatalf("waiting Get(X) retried into page %d, %v", r.pg.ID, r.err)
				}
				p.Unpin(r.pg, false)
			}
			if n := p.PinnedCount(); n != 0 {
				t.Fatalf("%d pins held after a failed read", n)
			}
			// Both frames of the shard are usable: two other pages pinned
			// at once.
			var held []Page
			for _, pid := range pids[1:] {
				pg, err := p.Get(pid)
				if err != nil || !tagOK(pg, pid) {
					t.Fatalf("Get(%d) after the failed read: %v", pid, err)
				}
				held = append(held, pg)
			}
			for _, pg := range held {
				p.Unpin(pg, false)
			}
			if p.Contains(x) {
				t.Fatal("X has a table entry with no read in flight and no frame")
			}

			store.mu.Lock()
			delete(store.fail, x)
			store.mu.Unlock()
			mid := store.readsOf(x)
			pg, err := p.Get(x)
			if err != nil || !tagOK(pg, x) {
				t.Fatalf("Get(X) after the fault cleared: page %d, %v", pg.ID, err)
			}
			p.Unpin(pg, false)
			if store.readsOf(x) != mid+1 {
				t.Errorf("Get(X) after a failed read made %d store reads, want 1", store.readsOf(x)-mid)
			}
			if wantMin := before + 2; mid < wantMin {
				t.Errorf("%d store reads of X by the two failed Gets, want at least 2", mid-before)
			}
			checkFastConsistent(t, p, "after the failed reads")
		})
	}
}

// TestInflightFrameNotEvicted: eviction pressure on the shard never
// selects the frame a read is in flight into — the buffer the unlocked
// read fills belongs to that read alone — and when every other frame is
// pinned the shard reports exhaustion instead of taking it.
func TestInflightFrameNotEvicted(t *testing.T) {
	store := newGateStore(512)
	p := NewConcurrentPool(store, 2, 1)
	pids := coldPages(t, p, 12)
	x := pids[0]

	release := store.hold(x)
	defer release()
	a := goGet(p, x)
	await(t, "Get(X) entering the store", store.entered)

	within(t, "cold Gets through the one free frame", func() {
		for round := 0; round < 3; round++ {
			for _, pid := range pids[1:] {
				pg, err := p.Get(pid)
				if err != nil || !tagOK(pg, pid) {
					t.Errorf("Get(%d) beside the in-flight read: page %d, %v", pid, pg.ID, err)
					return
				}
				p.Unpin(pg, false)
				if err := p.Prefetch(pids[1+(int(pid)+round)%11]); err != nil {
					t.Error(err)
				}
			}
		}
		// One frame in flight, the other pinned: nothing to evict.
		pg, err := p.Get(pids[1])
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := p.Get(pids[2]); !errors.Is(err, ErrPoolExhausted) {
			t.Errorf("Get with one frame in flight and one pinned: %v, want ErrPoolExhausted", err)
		}
		p.Unpin(pg, false)
	})
	if !p.Contains(x) {
		t.Fatal("the in-flight page lost its table entry under eviction pressure")
	}
	release()
	r := await(t, "Get(X)", a)
	if r.err != nil || !tagOK(r.pg, x) {
		t.Fatalf("Get(X) after eviction pressure on its shard: page %d, %v", r.pg.ID, r.err)
	}
	p.Unpin(r.pg, false)
	if n := p.PinnedCount(); n != 0 {
		t.Errorf("%d pins leaked", n)
	}
	checkFastConsistent(t, p, "after eviction pressure")
}

// TestWarmReadsTakeNoShardMutex: with the test holding the shard's
// mutex, a warm Get and a ReadOpt of every resident page of a shard
// holding far more pages than the old 128-slot table return.
func TestWarmReadsTakeNoShardMutex(t *testing.T) {
	p := NewConcurrentPool(NewMemStore(512), 2048, 1)
	pids := make([]uint32, 1500)
	for i := range pids {
		pg, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		tagPage(pg)
		pids[i] = pg.ID
		p.Unpin(pg, true)
	}
	// A Prefetched page must be as findable as one a Get brought in.
	if err := p.DropAll(); err != nil {
		t.Fatal(err)
	}
	for i, pid := range pids {
		if i%2 == 0 {
			if err := p.Prefetch(pid); err != nil {
				t.Fatal(err)
			}
			continue
		}
		pg, err := p.Get(pid)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(pg, false)
	}
	before := p.stats.tableLookups.Load()

	sh := &p.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	within(t, "warm Get and ReadOpt of every resident page", func() {
		for _, pid := range pids {
			pg, err := p.Get(pid)
			if err != nil || !tagOK(pg, pid) {
				t.Errorf("warm Get(%d) = page %d, %v", pid, pg.ID, err)
				return
			}
			p.Unpin(pg, false)
			if p.OptSupported() {
				if v, ok := p.ReadOpt(pid); !ok || v.Data[0] != byte(pid) || !p.ValidateOpt(v) {
					t.Errorf("ReadOpt(%d) of a resident page: ok=%v", pid, ok)
					return
				}
			}
		}
	})
	if n := p.stats.tableLookups.Load() - before; n != 0 {
		t.Errorf("%d translations took the shard mutex, want 0", n)
	}
}

// TestTableAgainstMap drives the pid→frame table alone — inserts and
// back-shifting removes of pids picked to pile up in a few home slots at
// the end of the slot array, so runs are long and wrap around — against
// a map, checking every lookup after every step.
func TestTableAgainstMap(t *testing.T) {
	p := NewPool(NewMemStore(512), 15)
	sh := &p.shards[0]
	slots := uint32(len(sh.slots))
	// Candidate pids: those whose home slot is one of the last three.
	var cand []uint32
	for pid := uint32(1); len(cand) < 64; pid++ {
		if _, h := p.locate(pid); h >= slots-3 {
			cand = append(cand, pid)
		}
	}
	ref := map[uint32]int{}
	check := func(step int) {
		t.Helper()
		for _, pid := range cand {
			_, home := p.locate(pid)
			i, ok := sh.lookup(pid, home)
			if wi, wok := ref[pid]; ok != wok || (ok && i != wi) {
				t.Fatalf("step %d: lookup(%d) = (%d, %v), want (%d, %v)", step, pid, i, ok, wi, wok)
			}
		}
		if sh.resident != len(ref) {
			t.Fatalf("step %d: table counts %d entries, want %d", step, sh.resident, len(ref))
		}
	}
	x := uint32(12345)
	for step := 0; step < 20000; step++ {
		x = x*1664525 + 1013904223
		pid := cand[(x>>8)%uint32(len(cand))]
		if _, in := ref[pid]; in {
			p.removeLocked(sh, pid)
			delete(ref, pid)
		} else if len(ref) < len(sh.frames) {
			i := int(x>>20) % len(sh.frames)
			_, home := p.locate(pid)
			sh.insert(pid, home, i)
			ref[pid] = i
		}
		check(step)
	}
}
