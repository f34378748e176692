package fault

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/buffer"
)

const stepTimeout = 5 * time.Second

// gateInner is a MemStore whose reads block inside ReadPage, and whose
// writes block after the media has the new bytes, until released.
type gateInner struct {
	*buffer.MemStore
	entered     chan uint32   // one send per ReadPage, once it is inside
	releaseRead chan struct{} // closed to let the reads go
	wrote       chan uint32   // one send per gated WritePage, media already updated
	releaseWr   chan struct{} // nil: writes are not gated
}

func (g *gateInner) ReadPage(pid uint32, dst []byte, now uint64) (uint64, error) {
	if g.releaseRead != nil {
		g.entered <- pid
		<-g.releaseRead
	}
	return g.MemStore.ReadPage(pid, dst, now)
}

func (g *gateInner) WritePage(pid uint32, src []byte, now uint64) (uint64, error) {
	done, err := g.MemStore.WritePage(pid, src, now)
	if g.releaseWr != nil {
		g.wrote <- pid
		<-g.releaseWr
	}
	return done, err
}

var checksumStores = map[string]func(buffer.Store) *ChecksumStore{
	"stateful":  NewChecksumStore,
	"stateless": NewStatelessChecksumStore,
}

// TestChecksumReadsOverlap: two ReadPages of different pages are inside
// the inner store at the same time — no store-wide lock and no shared
// buffer serializes them — and each returns its own page's bytes.
func TestChecksumReadsOverlap(t *testing.T) {
	for name, newStore := range checksumStores {
		t.Run(name, func(t *testing.T) {
			g := &gateInner{MemStore: buffer.NewMemStore(testPage)}
			cs := newStore(g)
			logical := cs.PageSize()
			for pid := uint32(1); pid <= 2; pid++ {
				if _, err := cs.WritePage(pid, bytes.Repeat([]byte{byte(pid)}, logical), 0); err != nil {
					t.Fatal(err)
				}
			}
			g.entered, g.releaseRead = make(chan uint32, 2), make(chan struct{})

			type result struct {
				pid uint32
				dst []byte
				err error
			}
			results := make(chan result, 2)
			for pid := uint32(1); pid <= 2; pid++ {
				go func(pid uint32) {
					dst := make([]byte, logical)
					_, err := cs.ReadPage(pid, dst, 0)
					results <- result{pid, dst, err}
				}(pid)
			}
			for i := 0; i < 2; i++ {
				select {
				case <-g.entered:
				case <-time.After(stepTimeout):
					close(g.releaseRead)
					t.Fatalf("only %d of 2 reads reached the inner store: the checksum store serializes reads", i)
				}
			}
			close(g.releaseRead)
			for i := 0; i < 2; i++ {
				r := <-results
				if r.err != nil || !bytes.Equal(r.dst, bytes.Repeat([]byte{byte(r.pid)}, logical)) {
					t.Errorf("overlapped read of page %d: err=%v, first byte %#x", r.pid, r.err, r.dst[0])
				}
			}
		})
	}
}

// TestStatefulReadCannotStraddleWrite: a stateful read of a page whose
// WritePage is between the media update and the version-map update
// waits for it, and then verifies the new bytes against the new
// version — it never compares the one with the other's predecessor and
// reports a corrupt page that is not.
func TestStatefulReadCannotStraddleWrite(t *testing.T) {
	g := &gateInner{MemStore: buffer.NewMemStore(testPage)}
	cs := NewChecksumStore(g)
	logical := cs.PageSize()
	old, upd := bytes.Repeat([]byte{0x11}, logical), bytes.Repeat([]byte{0x22}, logical)
	if _, err := cs.WritePage(3, old, 0); err != nil {
		t.Fatal(err)
	}
	g.wrote, g.releaseWr = make(chan uint32, 1), make(chan struct{})

	wrErr := make(chan error, 1)
	go func() {
		_, err := cs.WritePage(3, upd, 0)
		wrErr <- err
	}()
	select {
	case <-g.wrote:
	case <-time.After(stepTimeout):
		t.Fatal("WritePage never reached the inner store")
	}
	type result struct {
		dst []byte
		err error
	}
	rd := make(chan result, 1)
	go func() {
		dst := make([]byte, logical)
		_, err := cs.ReadPage(3, dst, 0)
		rd <- result{dst, err}
	}()
	// The read must not finish inside the write's window. Only a wrong
	// implementation returns here, and it returns at once, so the wait
	// bounds how long a correct run takes, not whether it passes.
	select {
	case r := <-rd:
		close(g.releaseWr)
		t.Fatalf("ReadPage returned (err=%v) while WritePage of its page was between media and version map", r.err)
	case <-time.After(50 * time.Millisecond):
	}
	close(g.releaseWr)
	if err := <-wrErr; err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-rd:
		if r.err != nil || !bytes.Equal(r.dst, upd) {
			t.Fatalf("read after the write: err=%v, first byte %#x, want the new page", r.err, r.dst[0])
		}
	case <-time.After(stepTimeout):
		t.Fatal("ReadPage still blocked after the write finished")
	}
}

// TestChecksumReadWriteRace hammers one page with writes from one
// goroutine and reads from three, on both stores: every read returns a
// whole page some write wrote and never ErrCorruptPage. Run under -race
// for the buffers.
func TestChecksumReadWriteRace(t *testing.T) {
	for name, newStore := range checksumStores {
		t.Run(name, func(t *testing.T) {
			cs := newStore(buffer.NewMemStore(testPage))
			logical := cs.PageSize()
			if _, err := cs.WritePage(9, make([]byte, logical), 0); err != nil {
				t.Fatal(err)
			}
			var stop atomic.Bool
			var wg sync.WaitGroup
			for r := 0; r < 3; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					dst := make([]byte, logical)
					for !stop.Load() {
						if _, err := cs.ReadPage(9, dst, 0); err != nil {
							t.Errorf("read racing a write: %v", err)
							return
						}
						if !bytes.Equal(dst, bytes.Repeat(dst[:1], logical)) {
							t.Errorf("read racing a write returned a mixed page (%#x … %#x)", dst[0], dst[logical-1])
							return
						}
					}
				}()
			}
			for i := 1; i <= 2000; i++ {
				if _, err := cs.WritePage(9, bytes.Repeat([]byte{byte(i)}, logical), 0); err != nil {
					t.Fatal(err)
				}
			}
			stop.Store(true)
			wg.Wait()
		})
	}
}

// TestChecksumWarmMissAllocs: a buffer-pool miss through the stateless
// checksum stack — the one every durable tree runs — allocates nothing
// once the read buffers are warm: each read verifies in a recycled
// physical-page buffer of its own.
func TestChecksumWarmMissAllocs(t *testing.T) {
	p := buffer.NewPool(NewStatelessChecksumStore(buffer.NewMemStore(testPage)), 2)
	var pids []uint32
	for i := 0; i < 3; i++ {
		pg, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		pids = append(pids, pg.ID)
		p.Unpin(pg, true)
	}
	if err := p.DropAll(); err != nil {
		t.Fatal(err)
	}
	// Three pages round-robin through two frames: every Get misses.
	i := 0
	get := func() {
		pg, err := p.Get(pids[i%len(pids)])
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(pg, false)
		i++
	}
	get()
	before := p.Stats().DemandMisses
	allocs := testing.AllocsPerRun(1000, get)
	if misses := p.Stats().DemandMisses - before; misses < 1000 {
		t.Fatalf("only %d of the Gets missed; the test measures nothing", misses)
	}
	if allocs != 0 {
		t.Fatalf("a warm miss through the checksum stack allocates %.1f objects/op, want 0", allocs)
	}
}

// TestPoolStressChecksummedFaults drives a sharded pool an eighth the
// size of its page set, over the checksum store and an injector failing
// reads transiently and flipping bits in write-backs, from several
// goroutines mixing cold and warm Get, TryGetX with dirty unpins,
// Prefetch and ReadOpt+ValidateOpt. Every page handed out carries its
// own pid; errors are only the injected kinds; no pin survives; and the
// store saw no read the pool's counters cannot account for — a Get that
// waits for another's in-flight read issues none of its own.
func TestPoolStressChecksummedFaults(t *testing.T) {
	const (
		pages   = 256
		workers = 4
		opsEach = 6000
	)
	fs := New(buffer.NewMemStore(testPage), Config{Seed: 11, Rules: []Rule{
		{Kind: TransientRead, Prob: 0.08},
		{Kind: BitFlip, Prob: 0.01, Limit: 8},
	}})
	fs.SetEnabled(false)
	p := buffer.NewConcurrentPool(NewChecksumStore(fs), pages/8, 4)
	tagged := func(d []byte, pid uint32) bool { return d[0] == byte(pid) && d[1] == byte(pid>>8) }
	pids := make([]uint32, pages)
	for i := range pids {
		pg, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		pg.Data[0], pg.Data[1] = byte(pg.ID), byte(pg.ID>>8)
		pids[i] = pg.ID
		p.Unpin(pg, true)
	}
	if err := p.DropAll(); err != nil {
		t.Fatal(err)
	}
	fs.SetEnabled(true)
	p.ResetStats()
	readsBefore := fs.Stats().Reads

	var failedGets atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			injected := func(err error) bool {
				failedGets.Add(1)
				return errors.Is(err, buffer.ErrTransientIO) || errors.Is(err, buffer.ErrCorruptPage)
			}
			x := uint32(w)*2654435761 + 1
			for n := 0; n < opsEach; n++ {
				x = x*1664525 + 1013904223
				// Four in five ops go to a hot eighth of the pages, so warm
				// hits, waits on another's read and cold misses all occur.
				pid := pids[(x>>8)%pages]
				if (x>>4)%5 != 0 {
					pid = pids[(x>>8)%(pages/8)]
				}
				switch (x >> 28) % 4 {
				case 0, 1:
					pg, err := p.Get(pid)
					if err != nil {
						if !injected(err) {
							t.Errorf("Get(%d): %v", pid, err)
							return
						}
						continue
					}
					if pg.ID != pid || !tagged(pg.Data, pid) {
						t.Errorf("Get(%d) returned page %d tagged %d,%d", pid, pg.ID, pg.Data[0], pg.Data[1])
					}
					p.Unpin(pg, false)
				case 2:
					pg, ok, err := p.TryGetX(pid)
					if err != nil {
						if !injected(err) {
							t.Errorf("TryGetX(%d): %v", pid, err)
							return
						}
						continue
					}
					if !ok {
						continue
					}
					if pg.ID != pid || !tagged(pg.Data, pid) {
						t.Errorf("TryGetX(%d) returned page %d tagged %d,%d", pid, pg.ID, pg.Data[0], pg.Data[1])
					}
					pg.Data[2]++
					p.Unpin(pg, true)
				case 3:
					if err := p.Prefetch(pid); err != nil {
						t.Errorf("Prefetch(%d): %v", pid, err)
						return
					}
					if v, ok := p.ReadOpt(pid); ok {
						good := tagged(v.Data, pid)
						if p.ValidateOpt(v) && !good {
							t.Errorf("ReadOpt(%d) validated a view of another page", pid)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if n := p.PinnedCount(); n != 0 {
		t.Errorf("%d pins leaked", n)
	}
	st, reads := p.Stats(), fs.Stats().Reads-readsBefore
	accounted := st.DemandMisses + st.PrefetchIssue + st.Retries + failedGets.Load() + st.PrefetchFailures
	if reads > accounted || reads < st.DemandMisses+st.PrefetchIssue {
		t.Errorf("store saw %d reads; pool accounts for %d..%d (misses %d + prefetches %d + retries %d + failed gets %d + failed prefetches %d)",
			reads, st.DemandMisses+st.PrefetchIssue, accounted, st.DemandMisses, st.PrefetchIssue, st.Retries, failedGets.Load(), st.PrefetchFailures)
	}
	t.Logf("%+v", st)
	if st.Retries == 0 || st.DemandMisses == 0 || st.Hits == 0 {
		t.Errorf("stress exercised too little: %+v", st)
	}
	if c := fs.Stats().CorruptReads; c != st.ChecksumFailures {
		t.Errorf("injector served %d corrupt reads, checksum layer caught %d", c, st.ChecksumFailures)
	}

	// Quiesced, every page the injector did not corrupt reads back whole.
	fs.SetEnabled(false)
	for _, pid := range pids {
		pg, err := p.Get(pid)
		if err != nil {
			if !errors.Is(err, buffer.ErrCorruptPage) {
				t.Errorf("Get(%d) with injection off: %v", pid, err)
			}
			continue
		}
		if !tagged(pg.Data, pid) {
			t.Errorf("page %d lost its tag", pid)
		}
		p.Unpin(pg, false)
	}
}
