package pagetree_test

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"repro/internal/buffer"
	"repro/internal/idx"
	"repro/internal/memsim"
	"repro/internal/obs"
	"repro/internal/pagetree"
)

// scanIndex is what the scan tests drive: the trees that embed
// pagetree.Tree, and the fake.
type scanIndex interface {
	pagetree.Layout
	Bulkload(entries []idx.Entry, fill float64) error
	Insert(k idx.Key, tid idx.TupleID) error
	RangeScan(lo, hi idx.Key, fn func(idx.Key, idx.TupleID) bool) (int, error)
	RangeScanReverse(lo, hi idx.Key, fn func(idx.Key, idx.TupleID) bool) (int, error)
	FirstLeaf() uint32
}

// TestScanPoolSequence pins the pool traffic of the shared range scan:
// for one forward and one reverse jump-pointer scan per layout, the Get
// hits, demand misses, prefetch issues and hits and the evictions of a
// 12-frame pool, interleaved with the entries delivered and the pin
// count each delivery saw. The simulated I/O tables depend on this
// order. testdata/scan.golden was recorded from the per-tree scan bodies
// this walk replaced.
//
// The tree is three levels of 1 KB pages loaded a quarter full; the
// range covers twelve leaf pages either side of the first leaf-parent
// boundary, so the jump-pointer gathering descends through the root and
// crosses from one leaf parent to the next, and the four pages at the
// boundary are first overfilled with inserts (duplicates among them) so
// that some of the chain was linked by splits.
func TestScanPoolSequence(t *testing.T) {
	var got bytes.Buffer
	for _, row := range layoutRows {
		mm := memsim.NewDefault()
		pool := buffer.NewPool(buffer.NewMemStore(1<<10), 12)
		pool.AttachModel(mm)
		lay, err := row.make(pool, mm, 4)
		if err != nil {
			t.Fatal(err)
		}
		ix := lay.(scanIndex)
		entries := make([]idx.Entry, 20000)
		for i := range entries {
			entries[i] = idx.Entry{Key: idx.Key(3 * i), TID: idx.TupleID(3*i + 7)}
		}
		if err := ix.Bulkload(entries, 0.25); err != nil {
			t.Fatal(err)
		}
		pg, err := pool.Get(ix.FirstLeaf())
		if err != nil {
			t.Fatal(err)
		}
		first, _ := ix.SalvageLeaf(pg.Data, nil)
		pool.Unpin(pg, false)
		per := len(first) // entries per leaf page, leaf pages per leaf parent
		edge := per * per // index of the first key under the second leaf parent
		for i := edge - 2*per; i < edge+2*per; i++ {
			for _, k := range []idx.Key{idx.Key(3*i + 1), idx.Key(3 * i), idx.Key(3*i + 2), idx.Key(3*i + 1)} {
				if err := ix.Insert(k, k+7); err != nil {
					t.Fatal(err)
				}
			}
		}
		lo, hi := idx.Key(3*(edge-12*per)+1), idx.Key(3*(edge+12*per)+2)

		tr := obs.NewTracer(1 << 14)
		pool.AttachTracer(tr)
		deliver := func(k idx.Key, tid idx.TupleID) bool {
			if tid != k+7 {
				t.Errorf("%s: key %d carries tuple %d", row.name, k, tid)
			}
			tr.Emit(obs.Event{Kind: obs.EvNodeVisit, A: uint64(pool.PinnedCount())})
			return true
		}
		want := 24*per + 16*per // the loaded keys and the inserted ones
		for _, reverse := range []bool{false, true} {
			if err := pool.DropAll(); err != nil {
				t.Fatal(err)
			}
			tr.Reset()
			dir, scan := "forward", ix.RangeScan
			if reverse {
				dir, scan = "reverse", ix.RangeScanReverse
			}
			n, err := scan(lo, hi, deliver)
			if err != nil || n != want {
				t.Fatalf("%s %s: scan = (%d, %v), want %d entries", row.name, dir, n, err, want)
			}
			if tr.Dropped() != 0 {
				t.Fatal("trace ring overflowed")
			}
			fmt.Fprintf(&got, "# %s %s\n", row.name, dir)
			run, runPins := 0, uint64(0)
			flush := func() {
				if run > 0 {
					fmt.Fprintf(&got, "deliver x%d pins=%d\n", run, runPins)
				}
				run = 0
			}
			for _, e := range tr.Events(nil) {
				if e.Kind == obs.EvNodeVisit && e.PID == 0 {
					if run > 0 && e.A != runPins {
						flush()
					}
					run, runPins = run+1, e.A
					continue
				}
				flush()
				if ev := poolEvent(e); ev != "" {
					fmt.Fprintln(&got, ev)
				}
			}
			flush()
		}
		pool.AttachTracer(nil)
	}
	checkGolden(t, "testdata/scan.golden", got.Bytes())
}

// poolEvent formats one pool trace event as the golden files record it
// ("" for the layouts' own node-visit events).
func poolEvent(e obs.Event) string {
	switch e.Kind {
	case obs.EvNodeVisit:
		return ""
	case obs.EvEvict:
		return fmt.Sprintf("evict %d dirty=%d", e.PID, e.A)
	}
	return fmt.Sprintf("%s %d", e.Kind, e.PID)
}

// checkGolden compares got with the golden file, which -update
// rewrites, and reports the first line where they part.
func checkGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	if *pagetree.Update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("pool sequence diverges from %s at line %d: got %q, want %q", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("pool sequence has %d lines, %s has %d", len(gl), golden, len(wl))
	}
}
