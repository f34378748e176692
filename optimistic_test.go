package fpbtree

import (
	"fmt"
	"sync"
	"testing"
)

// optimisticMatrixCell is one conformance configuration: variant ×
// leaf layout.
type optimisticMatrixCell struct {
	variant Variant
	gapped  bool
}

func (c optimisticMatrixCell) name() string {
	n := c.variant.String()
	if c.gapped {
		n += "/gapped"
	}
	return n + "/optimistic"
}

// TestOptimisticConformanceMatrix runs the mixed reader/crabbing-writer
// stress over every variant in serving mode, where point lookups take
// the optimistic read path — including the gapped leaf layout where
// supported — and checks the final tree differentially against the
// exact reference model with zero pin leaks. Under -race the optimistic
// path disables itself (seqlock reads are intentional data races), so
// this matrix then exercises the latched fallback descent instead.
func TestOptimisticConformanceMatrix(t *testing.T) {
	cells := []optimisticMatrixCell{
		{DiskFirst, false},
		{DiskFirst, true},
		{CacheFirst, false},
		{CacheFirst, true},
		{DiskOptimized, false},
		{MicroIndex, false},
	}
	for _, c := range cells {
		c := c
		t.Run(c.name(), func(t *testing.T) {
			t.Parallel()
			opts := []Option{
				WithVariant(c.variant),
				WithConcurrency(4),
				WithPageSize(4 << 10),
				WithBufferPages(512),
			}
			if c.gapped {
				opts = append(opts, WithGappedLeaves())
			}
			runOptimisticStress(t, opts)
		})
	}
}

// runOptimisticStress drives 2 searching readers and 2 crabbing
// writers over a bulkloaded tree built with opts, then checks pin
// leaks, structural invariants, and the exact key/tuple differential.
func runOptimisticStress(t *testing.T, opts []Option) {
	const (
		oddKeys      = 2500 // bulkloaded: 1, 3, 5, ...
		insPerWriter = 1000 // writer w inserts evens ≡ 2w (mod 4)
	)
	tr, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]Entry, oddKeys)
	for i := range entries {
		k := Key(2*i + 1)
		entries[i] = Entry{Key: k, TID: TupleID(k + 7)}
	}
	if err := tr.Bulkload(entries, 0.8); err != nil {
		t.Fatal(err)
	}
	maxKey := Key(2 * oddKeys)

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			x := uint32(1000*w + 17)
			for n := 0; n < 5000; n++ {
				x = x*1664525 + 1013904223
				k := Key(x % uint32(maxKey+10))
				tid, ok, err := tr.Search(k)
				if err != nil {
					errs <- fmt.Errorf("reader %d: Search(%d): %v", w, k, err)
					return
				}
				if k%2 == 1 && k < maxKey {
					if !ok || tid != TupleID(k+7) {
						errs <- fmt.Errorf("reader %d: Search(%d) = (%d,%v), want (%d,true)", w, k, tid, ok, k+7)
						return
					}
				} else if ok && tid != TupleID(k+7) {
					// Evens appear as writers land them, but a present
					// tuple must never be torn.
					errs <- fmt.Errorf("reader %d: Search(%d) saw wrong tuple %d", w, k, tid)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < insPerWriter; n++ {
				k := Key(4*n + 2*w) // disjoint even keys per writer
				if k == 0 {
					k = 4 * insPerWriter // keep 0 free as a sentinel
				}
				if err := tr.Insert(k, TupleID(k+7)); err != nil {
					errs <- fmt.Errorf("writer %d: Insert(%d): %v", w, k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if n := tr.PinnedPages(); n != 0 {
		t.Fatalf("%d pinned pages leaked", n)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}

	want := make(map[Key]TupleID, oddKeys+2*insPerWriter)
	for i := 0; i < oddKeys; i++ {
		k := Key(2*i + 1)
		want[k] = TupleID(k + 7)
	}
	for w := 0; w < 2; w++ {
		for n := 0; n < insPerWriter; n++ {
			k := Key(4*n + 2*w)
			if k == 0 {
				k = 4 * insPerWriter
			}
			want[k] = TupleID(k + 7)
		}
	}
	got := make(map[Key]TupleID, len(want))
	if _, err := tr.RangeScan(0, ^Key(0), func(k Key, tid TupleID) bool {
		got[k] = tid
		return true
	}); err != nil {
		t.Fatalf("final scan: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("tree has %d entries, reference has %d", len(got), len(want))
	}
	for k, tid := range want {
		if got[k] != tid {
			t.Fatalf("key %d: tree has %d, reference has %d", k, got[k], tid)
		}
	}
}
