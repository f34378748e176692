package pagetree

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/memsim"
	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden")

// fake is the smallest Layout that can drive the protocol: four
// entries per page, so a few hundred inserts build a tree eight levels
// deep and split cascades, root grows and full-ancestor chains — rare
// on 16 KB pages — happen on almost every operation.
//
//	byte 0  kind (1 leaf, 2 internal)
//	byte 1  count
//	byte 4  next  uint32
//	byte 8  entries: key uint32, ptr uint32
//	byte 40 prev  uint32 (with links)
type fake struct {
	Tree
	pool *buffer.Pool
	// links makes splits keep the prev links a reverse scan walks. It
	// costs a split one more Get, on the right sibling; off, a split's
	// pool traffic is what testdata/serial_insert.golden recorded.
	links bool
	// tr, when set, receives one event per hook call (A = hook, B =
	// pinned pages at the call) between the pool's own Get events.
	tr     *obs.Tracer
	splits atomic.Int64 // SplitPage calls
}

const (
	fakeCap      = 4
	fakePageSize = 64
	fakeLeaf     = 1
	fakeInternal = 2
)

const (
	hookTouch = iota
	hookChildForInsert
	hookInsert
	hookSplit
)

var hookNames = [...]string{hookTouch: "touch", hookChildForInsert: "child-for-insert", hookInsert: "insert", hookSplit: "split"}

// newFake builds a serving tree: on a latched pool, in a build without
// the race detector, inserts take the leaf-only path when they can.
func newFake(pool *buffer.Pool) *fake {
	f := &fake{pool: pool}
	f.init(0, false)
	return f
}

// NewScanFake is newFake for range scans, here and in package
// pagetree_test: splits keep prev links, window > 0 turns jump-pointer
// prefetching on, overshoot is the ablation.
func NewScanFake(pool *buffer.Pool, window int, overshoot bool) *fake {
	f := &fake{pool: pool, links: true}
	f.init(window, overshoot)
	return f
}

func (f *fake) init(window int, overshoot bool) {
	mm := memsim.NewDefault()
	mm.SetConcurrent(true)
	f.Init(f.pool, f, mm, window > 0, window, overshoot)
}

var le = binary.LittleEndian

func fCount(d []byte) int          { return int(d[1]) }
func fKey(d []byte, i int) idx.Key { return le.Uint32(d[8+8*i:]) }
func fPtr(d []byte, i int) uint32  { return le.Uint32(d[12+8*i:]) }
func fSet(d []byte, i int, k, p uint32) {
	le.PutUint32(d[8+8*i:], k)
	le.PutUint32(d[12+8*i:], p)
}

// fSlot is the largest slot whose key is <= k (lt: < k), or -1.
func fSlot(d []byte, k idx.Key, lt bool) int {
	s := -1
	for i := 0; i < fCount(d); i++ {
		if fKey(d, i) < k || (!lt && fKey(d, i) == k) {
			s = i
		}
	}
	return s
}

func (f *fake) log(hook int, pg buffer.Page) {
	if f.tr != nil {
		f.tr.Emit(obs.Event{Kind: obs.EvNodeVisit, PID: pg.ID, A: uint64(hook), B: uint64(f.pool.PinnedCount())})
	}
}

func (f *fake) TouchHeader(pg buffer.Page) { f.log(hookTouch, pg) }

func (f *fake) ChildFor(pg buffer.Page, k idx.Key, lt bool) (uint32, bool) {
	s := fSlot(pg.Data, k, lt)
	return fPtr(pg.Data, max(s, 0)), s < 0
}

func (f *fake) ChildForInsert(pg buffer.Page, k idx.Key) (uint32, bool) {
	f.log(hookChildForInsert, pg)
	s := fSlot(pg.Data, k, false)
	if s >= 0 {
		return fPtr(pg.Data, s), false
	}
	le.PutUint32(pg.Data[8:], k)
	return fPtr(pg.Data, 0), true
}

func (f *fake) Safe(d []byte) bool { return fCount(d) < fakeCap }

func (f *fake) InsertOnePage(pg buffer.Page, k idx.Key, p uint32) (bool, error) {
	f.log(hookInsert, pg)
	d := pg.Data
	if !f.Safe(d) {
		return false, nil
	}
	at := fSlot(d, k, false) + 1
	copy(d[8+8*(at+1):8+8*(fCount(d)+1)], d[8+8*at:8+8*fCount(d)])
	fSet(d, at, k, p)
	d[1]++
	return true, nil
}

func (f *fake) SplitPage(pg buffer.Page) (idx.Key, uint32, error) {
	f.log(hookSplit, pg)
	f.splits.Add(1)
	np, err := f.NewPageWrite()
	if err != nil {
		return 0, 0, err
	}
	d, nd := pg.Data, np.Data
	mid := fCount(d) / 2
	nd[0] = d[0]
	nd[1] = byte(fCount(d) - mid)
	copy(nd[8:], d[8+8*mid:8+8*fCount(d)])
	copy(nd[4:8], d[4:8])
	d[1] = byte(mid)
	le.PutUint32(d[4:], np.ID)
	if right := f.Next(nd); f.links && right != 0 {
		// Like the real layouts: the right sibling's prev is fixed last,
		// under its own latch, with pg and the new page still held.
		rp, err := f.GetWrite(right)
		if err != nil {
			f.pool.Unpin(np, true)
			return 0, 0, err
		}
		le.PutUint32(rp.Data[40:], np.ID)
		f.pool.Unpin(rp, true)
	}
	le.PutUint32(nd[40:], pg.ID)
	f.pool.Unpin(np, true)
	return fKey(nd, 0), np.ID, nil
}

func (f *fake) InitLeafRoot(d []byte) error { d[0] = fakeLeaf; return nil }

func (f *fake) InitRoot(d []byte, _ int, leftMin idx.Key, left uint32, sep idx.Key, right uint32) error {
	d[0], d[1] = fakeInternal, 2
	fSet(d, 0, leftMin, left)
	fSet(d, 1, sep, right)
	return nil
}

func (f *fake) MinKey(d []byte) idx.Key { return fKey(d, 0) }
func (f *fake) Next(d []byte) uint32    { return le.Uint32(d[4:]) }
func (f *fake) Prev(d []byte) uint32    { return le.Uint32(d[40:]) }

func (f *fake) ScanLeaf(pg buffer.Page, lo, hi idx.Key, reverse, _ bool, fn func(idx.Key, idx.TupleID) bool) (int, bool) {
	d, n := pg.Data, 0
	for j := 0; j < fCount(d); j++ {
		i := j
		if reverse {
			i = fCount(d) - 1 - j
		}
		k := fKey(d, i)
		if k < lo || k > hi {
			if (k < lo) == reverse {
				return n, true
			}
			continue
		}
		n++
		if fn != nil && !fn(k, fPtr(d, i)) {
			return n, true
		}
	}
	return n, false
}

func (f *fake) JumpPointers(pg buffer.Page, first, last uint32, extra int, dst []uint32) ([]uint32, bool) {
	d := pg.Data
	for i := 0; i < fCount(d); i++ {
		if first != 0 && fPtr(d, i) != first {
			continue
		}
		first = 0
		dst = append(dst, fPtr(d, i))
		if fPtr(d, i) == last {
			for j := i + 1; j < fCount(d) && j <= i+extra; j++ {
				dst = append(dst, fPtr(d, j))
			}
			return dst, true
		}
	}
	return dst, false
}

func (f *fake) RangeScan(lo, hi idx.Key, fn func(idx.Key, idx.TupleID) bool) (int, error) {
	return f.Scan(lo, hi, false, fn)
}

func (f *fake) RangeScanReverse(lo, hi idx.Key, fn func(idx.Key, idx.TupleID) bool) (int, error) {
	return f.Scan(lo, hi, true, fn)
}

func (f *fake) FirstChild(d []byte) uint32 {
	if fCount(d) == 0 {
		return 0
	}
	return fPtr(d, 0)
}

func (f *fake) SeekLeaf(pg buffer.Page, k idx.Key, _ bool) (int, idx.Key) {
	if s := fSlot(pg.Data, k, true) + 1; s < fCount(pg.Data) {
		return s, fKey(pg.Data, s)
	}
	return -1, 0
}

func (f *fake) TupleAt(pg buffer.Page, pos int) idx.TupleID { return fPtr(pg.Data, pos) }

func (f *fake) SalvageLeaf(d []byte, dst []idx.Entry) ([]idx.Entry, bool) {
	if d[0] != fakeLeaf || fCount(d) > fakeCap {
		return dst, false
	}
	for i := 0; i < fCount(d); i++ {
		dst = append(dst, idx.Entry{Key: fKey(d, i), TID: fPtr(d, i)})
	}
	return dst, true
}

// Bulkload rebuilds the tree by inserting the entries one by one.
func (f *fake) Bulkload(entries []idx.Entry, _ float64) error {
	if err := f.FreeAll(); err != nil {
		return err
	}
	for _, e := range entries {
		if err := f.Insert(e.Key, e.TID); err != nil {
			return err
		}
	}
	return nil
}

// Search is the shared point lookup.
func (f *fake) Search(k idx.Key) (idx.TupleID, bool, error) { return f.Lookup(k) }

// Delete removes the first entry of k's run, lazily.
func (f *fake) Delete(k idx.Key) (bool, error) {
	pg, s, err := f.Locate(k, f.Conc())
	if s < 0 {
		return false, err
	}
	d := pg.Data
	copy(d[8+8*s:], d[8+8*(s+1):8+8*fCount(d)])
	d[1]--
	f.pool.Unpin(pg, true)
	return true, nil
}

// check compares the tree with the sorted key multiset want: the leaf
// chain from FirstLeaf enumerates exactly want, every separator is a
// lower bound of its subtree, SearchBatch and the per-key descent find
// every key, and nothing stays pinned.
func (f *fake) check(t *testing.T, want []idx.Key) {
	t.Helper()
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	var got []idx.Key
	for pid := f.FirstLeaf(); pid != 0; {
		pg, err := f.pool.Get(pid)
		if err != nil {
			t.Fatal(err)
		}
		if pg.Data[0] != fakeLeaf {
			t.Fatalf("page %d in the leaf chain has kind %d", pid, pg.Data[0])
		}
		for i := 0; i < fCount(pg.Data); i++ {
			k := fKey(pg.Data, i)
			if fPtr(pg.Data, i) != k+7 {
				t.Fatalf("key %d carries tuple %d", k, fPtr(pg.Data, i))
			}
			got = append(got, k)
		}
		pid = f.Next(pg.Data)
		f.pool.Unpin(pg, false)
	}
	if len(got) != len(want) {
		t.Fatalf("leaf chain holds %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("leaf chain key %d = %d, want %d", i, got[i], want[i])
		}
	}

	levels := map[int]int{}
	var lastMin [64]idx.Key
	err := f.Walk(func(lvl int, d []byte) {
		levels[lvl]++
		if (lvl == 0) != (d[0] == fakeLeaf) {
			t.Errorf("level %d page has kind %d", lvl, d[0])
		}
		if fCount(d) > 0 && levels[lvl] > 1 && fKey(d, 0) < lastMin[lvl] {
			t.Errorf("level %d minimum keys regress: %d after %d", lvl, fKey(d, 0), lastMin[lvl])
		}
		if fCount(d) > 0 {
			lastMin[lvl] = fKey(d, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if h := f.Height(); len(levels) != h || (h > 0 && levels[h-1] != 1) {
		t.Fatalf("walk saw levels %v, height %d", levels, h)
	}
	total := 0
	for _, n := range levels {
		total += n
	}
	if pc := f.PageCount(); pc != total {
		t.Fatalf("PageCount = %d, walk saw %d", pc, total)
	}

	probe := append([]idx.Key{0, ^idx.Key(0)}, want...)
	res, err := f.SearchBatch(probe, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range probe {
		at := sort.Search(len(want), func(j int) bool { return want[j] >= k })
		present := at < len(want) && want[at] == k
		tid, found, err := f.Search(k)
		if err != nil {
			t.Fatal(err)
		}
		if found != present || (found && tid != k+7) {
			t.Fatalf("Search(%d) = (%d, %v), want present=%v", k, tid, found, present)
		}
		if res[i].Found != present || (present && res[i].TID != k+7) {
			t.Fatalf("SearchBatch[%d] (key %d) = %+v, want present=%v", i, k, res[i], present)
		}
	}
	if n := f.pool.PinnedCount(); n != 0 {
		t.Fatalf("%d pages left pinned", n)
	}
}

// TestInsertDifferential drives single-threaded inserts on both pool kinds
// (an uncontended latched pool takes the crabbing path) against a
// sorted model, and requires split cascades at least four levels deep —
// under crabbing, four held ancestors — to have happened.
func TestInsertDifferential(t *testing.T) {
	pools := map[string]func() *buffer.Pool{
		"sequential": func() *buffer.Pool { return buffer.NewPool(buffer.NewMemStore(fakePageSize), 64) },
		"latched":    func() *buffer.Pool { return buffer.NewConcurrentPool(buffer.NewMemStore(fakePageSize), 64, 4) },
	}
	for name, mk := range pools {
		t.Run(name, func(t *testing.T) {
			f := newFake(mk())
			rng := rand.New(rand.NewSource(7))
			var want []idx.Key
			deepest := 0
			for i := 0; i < 3000; i++ {
				k := idx.Key(rng.Intn(2000)) // ~1/3 duplicates
				if i%3 == 0 {
					k = idx.Key(100000 - i) // a descending run: separator lowering
				}
				before, h := f.splits.Load(), f.Height()
				if err := f.Insert(k, k+7); err != nil {
					t.Fatal(err)
				}
				want = append(want, k)
				cascade := int(f.splits.Load() - before)
				deepest = max(deepest, cascade)
				// The tree grows exactly when every level split.
				if grew := f.Height() - h; h > 0 && (grew == 1) != (cascade == h) {
					t.Fatalf("insert %d: %d splits at height %d grew the tree by %d", i, cascade, h, grew)
				}
				if i%500 == 499 {
					f.check(t, want)
				}
			}
			if deepest < 5 {
				t.Fatalf("deepest split cascade was %d pages, want >= 5 (four ancestors above the leaf)", deepest)
			}
			f.check(t, want)
		})
	}
}

// TestSerialInsertPoolSequence pins the pool traffic of the shared
// serial insert: the Get hits and misses (and, with six frames, the
// evictions and whether they wrote a dirty page back) interleaved with
// the layout hooks and the pin count each one saw. The simulated I/O
// tables of three variants depend on this order.
func TestSerialInsertPoolSequence(t *testing.T) {
	pool := buffer.NewPool(buffer.NewMemStore(fakePageSize), 6)
	tr := obs.NewTracer(1 << 14)
	pool.AttachTracer(tr)
	f := newFake(pool)
	f.tr = tr
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 120; i++ {
		k := idx.Key(rng.Intn(1000))
		if i%4 == 0 {
			k = idx.Key(5000 - i)
		}
		if err := f.Insert(k, k+7); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Dropped() != 0 {
		t.Fatal("trace ring overflowed")
	}
	var got bytes.Buffer
	for _, e := range tr.Events(nil) {
		switch e.Kind {
		case obs.EvNodeVisit:
			fmt.Fprintf(&got, "%s %d pins=%d\n", hookNames[e.A], e.PID, e.B)
		case obs.EvEvict:
			fmt.Fprintf(&got, "evict %d dirty=%d\n", e.PID, e.A)
		default:
			fmt.Fprintf(&got, "%s %d\n", e.Kind, e.PID)
		}
	}
	const golden = "testdata/serial_insert.golden"
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("pool sequence diverges from %s at line %d: got %q, want %q", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("pool sequence has %d lines, %s has %d", len(gl), golden, len(wl))
	}
}

// stressKey is writer w's i-th key in round r: disjoint across writers;
// odd writers descend, so separators get lowered under contention.
func stressKey(rng *rand.Rand, w, i int) idx.Key {
	const writers = 8
	if w%2 == 1 {
		return idx.Key((100000-i)*writers + w)
	}
	return idx.Key(rng.Intn(100000)*writers + w)
}

// stressRound races eight crabbing writers (perWriter inserts each)
// against two point readers and a batch reader that keep looking up
// the preloaded keys, then checks the tree against the model.
func stressRound(t *testing.T, seed int64, preloaded, perWriter int) {
	const writers = 8
	f := newFake(buffer.NewConcurrentPool(buffer.NewMemStore(fakePageSize), 2048, 16))
	var want []idx.Key
	for i := 0; i < preloaded; i++ {
		k := idx.Key(1_000_000 + 3*i)
		if err := f.Insert(k, k+7); err != nil {
			t.Fatal(err)
		}
		want = append(want, k)
	}
	stable := append([]idx.Key(nil), want...)

	var writing, reading sync.WaitGroup
	start, done := make(chan struct{}), make(chan struct{})
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			rng := rand.New(rand.NewSource(seed*writers + int64(w)))
			<-start
			for i := 0; i < perWriter; i++ {
				k := stressKey(rng, w, i)
				if err := f.Insert(k, k+7); err != nil {
					t.Errorf("writer %d: Insert(%d): %v", w, k, err)
					return
				}
			}
		}(w)
	}
	for rd := 0; rd < 3 && preloaded > 0; rd++ {
		reading.Add(1)
		go func(rd int) {
			defer reading.Done()
			var res []idx.SearchResult
			<-start
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				if rd == 2 {
					var err error
					if res, err = f.SearchBatch(stable, res[:0]); err != nil {
						t.Errorf("batch reader: %v", err)
						return
					}
					for i, k := range stable {
						if !res[i].Found || res[i].TID != k+7 {
							t.Errorf("SearchBatch lost key %d: %+v", k, res[i])
							return
						}
					}
					continue
				}
				k := stable[n%len(stable)]
				if tid, found, err := f.Search(k); err != nil || !found || tid != k+7 {
					t.Errorf("reader %d: Search(%d) = (%d, %v, %v)", rd, k, tid, found, err)
					return
				}
			}
		}(rd)
	}
	close(start)
	writing.Wait()
	close(done)
	reading.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for w := 0; w < writers; w++ {
		rng := rand.New(rand.NewSource(seed*writers + int64(w)))
		for i := 0; i < perWriter; i++ {
			want = append(want, stressKey(rng, w, i))
		}
	}
	f.check(t, want)
}

// TestConcurrentStress runs the crabbing protocol where the 16 KB
// layouts almost never take it. Births: many short rounds on a tree
// that starts empty, so eight writers race createRoot and the first
// root grows (stale-root retries). Depth: fewer long rounds that build
// seven-level trees under readers, with held-ancestor chains up to six
// pages long.
func TestConcurrentStress(t *testing.T) {
	for r := 0; r < 300; r++ {
		stressRound(t, int64(r), 0, 12)
	}
	for r := 0; r < 12; r++ {
		stressRound(t, int64(1000+r), 64, 250)
	}
}

// TestScavengeFreeAllMeta covers the maintenance half of the protocol
// on the fake: FreeAll returns every page, Scavenge rebuilds from the
// leaf chain and stops at the first page the layout rejects, and the
// durable meta round-trips.
func TestScavengeFreeAllMeta(t *testing.T) {
	pool := buffer.NewPool(buffer.NewMemStore(fakePageSize), 256)
	f := newFake(pool)
	var want []idx.Key
	for i := 0; i < 200; i++ {
		k := idx.Key(i * 5)
		if err := f.Insert(k, k+7); err != nil {
			t.Fatal(err)
		}
		want = append(want, k)
	}

	dm := f.DurableMeta()
	g := newFake(pool)
	if err := g.RestoreMeta(dm); err != nil {
		t.Fatal(err)
	}
	g.check(t, want)

	st, err := f.Scavenge(f.Bulkload)
	if err != nil || st.Truncated || st.Entries != len(want) {
		t.Fatalf("Scavenge = %+v, %v; want all %d entries", st, err, len(want))
	}
	f.check(t, want)

	// Damage the fourth leaf: the scavenge keeps the three before it.
	pid := f.FirstLeaf()
	kept := 0
	for i := 0; i < 3; i++ {
		pg, err := pool.Get(pid)
		if err != nil {
			t.Fatal(err)
		}
		kept += fCount(pg.Data)
		pid = f.Next(pg.Data)
		pool.Unpin(pg, false)
	}
	pg, err := pool.Get(pid)
	if err != nil {
		t.Fatal(err)
	}
	pg.Data[0] = fakeInternal
	pool.Unpin(pg, true)
	if err := pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	st, err = f.Scavenge(f.Bulkload)
	if err != nil || !st.Truncated || st.LeavesRead != 3 || st.Entries != kept {
		t.Fatalf("Scavenge over a damaged chain = %+v, %v; want 3 leaves, %d entries, truncated", st, err, kept)
	}
	f.check(t, want[:kept])

	pages := f.PageCount()
	next, free := pool.AllocState()
	if err := f.FreeAll(); err != nil {
		t.Fatal(err)
	}
	if root, h := f.RootHeight(); root != 0 || h != 0 || f.FirstLeaf() != 0 {
		t.Fatalf("FreeAll left root %d height %d first leaf %d", root, h, f.FirstLeaf())
	}
	if next2, free2 := pool.AllocState(); next2 != next || len(free2) != len(free)+pages {
		t.Fatalf("FreeAll returned %d pages to the pool, want %d", len(free2)-len(free), pages)
	}
	f.check(t, nil)
}
