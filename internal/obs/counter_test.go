package obs

import (
	"math/bits"
	"sync"
	"testing"
	"unsafe"
)

// Goroutines and per-goroutine calls for the exactness tests: more
// goroutines than stripes, so stripes are shared and Ps migrate.
const (
	exactG = 3 * stripes
	exactM = 2000
)

// exactValue is the value goroutine g records or adds on call i: spread
// over many buckets, with the global minimum and maximum each taken by
// one known call.
func exactValue(g, i int) uint64 {
	return uint64(g*exactM+i) * 977
}

func runExact(f func(g, i int)) {
	var wg sync.WaitGroup
	for g := 0; g < exactG; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < exactM; i++ {
				f(g, i)
			}
		}(g)
	}
	wg.Wait()
}

func TestCounterExactConcurrent(t *testing.T) {
	var c Counter
	runExact(func(g, i int) { c.Add(exactValue(g, i)) })
	var want uint64
	for g := 0; g < exactG; g++ {
		for i := 0; i < exactM; i++ {
			want += exactValue(g, i)
		}
	}
	if got := c.Load(); got != want {
		t.Fatalf("Load = %d, want %d", got, want)
	}
	c.Store(0)
	if got := c.Load(); got != 0 {
		t.Fatalf("Load after Store(0) = %d, want 0", got)
	}
	c.Add(5)
	c.Store(42)
	if got := c.Load(); got != 42 {
		t.Fatalf("Load after Store(42) = %d, want 42", got)
	}
}

func TestHistogramExactConcurrent(t *testing.T) {
	var h Histogram
	runExact(func(g, i int) { h.Record(exactValue(g, i)) })

	var want HistSnapshot
	var buckets [histBuckets]uint64
	want.Min = ^uint64(0)
	for g := 0; g < exactG; g++ {
		for i := 0; i < exactM; i++ {
			v := exactValue(g, i)
			want.Count++
			want.Sum += v
			want.Min = min(want.Min, v)
			want.Max = max(want.Max, v)
			buckets[bits.Len64(v)]++
		}
	}
	for i, c := range buckets {
		if c != 0 {
			want.Buckets = append(want.Buckets, HistBucket{UpperBound: bucketUpperBound(i), Count: c})
		}
	}
	got := h.Snapshot()
	if got.Count != want.Count || got.Sum != want.Sum || got.Min != want.Min || got.Max != want.Max {
		t.Fatalf("count/sum/min/max = %d/%d/%d/%d, want %d/%d/%d/%d",
			got.Count, got.Sum, got.Min, got.Max, want.Count, want.Sum, want.Min, want.Max)
	}
	if h.Count() != want.Count {
		t.Fatalf("Count() = %d, want %d", h.Count(), want.Count)
	}
	if len(got.Buckets) != len(want.Buckets) {
		t.Fatalf("%d buckets, want %d", len(got.Buckets), len(want.Buckets))
	}
	for i := range want.Buckets {
		if got.Buckets[i] != want.Buckets[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, got.Buckets[i], want.Buckets[i])
		}
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		if hq, sq := h.Quantile(q), got.Quantile(q); hq != sq {
			t.Fatalf("q=%g: Histogram.Quantile %d != HistSnapshot.Quantile %d", q, hq, sq)
		}
	}

	h.Reset()
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 || s.Min != 0 || s.Max != 0 || len(s.Buckets) != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("after Reset: %+v", s)
	}
	// A reset histogram takes a fresh minimum, not the old one.
	h.Record(7)
	if s := h.Snapshot(); s.Min != 7 || s.Max != 7 {
		t.Fatalf("min/max after Reset+Record(7) = %d/%d", s.Min, s.Max)
	}
}

// checkLineSeparated fails unless every word in one group lies at least
// stripeGap bytes from every word in every other group, and every word
// lies that far from the fields that can sit right before (offset -8)
// and right after (offset size) the struct. Words are 8 bytes and
// 8-aligned, so offsets 128 bytes apart can never share a 64-byte line
// (nor an aligned 128-byte pair), wherever the struct lands.
func checkLineSeparated(t *testing.T, name string, groups [][]uintptr, size uintptr) {
	t.Helper()
	apart := func(a, b int64) bool { return a-b >= stripeGap || b-a >= stripeGap }
	for gi, g := range groups {
		for _, a := range g {
			if !apart(int64(a), -8) || !apart(int64(a), int64(size)) {
				t.Fatalf("%s: stripe %d word at %d is within a line of a neighbouring field (size %d)", name, gi, a, size)
			}
			for gj, o := range groups {
				if gj == gi {
					continue
				}
				for _, b := range o {
					if !apart(int64(a), int64(b)) {
						t.Fatalf("%s: stripe %d word at %d and stripe %d word at %d share a line", name, gi, a, gj, b)
					}
				}
			}
		}
	}
}

func TestStripeLayout(t *testing.T) {
	var c Counter
	groups := make([][]uintptr, stripes)
	for i := range c.s {
		groups[i] = []uintptr{uintptr(unsafe.Pointer(&c.s[i].v)) - uintptr(unsafe.Pointer(&c))}
	}
	checkLineSeparated(t, "Counter", groups, unsafe.Sizeof(c))

	var h Histogram
	groups = make([][]uintptr, stripes)
	for i := range h.s {
		s := &h.s[i]
		words := []unsafe.Pointer{unsafe.Pointer(&s.sum), unsafe.Pointer(&s.minP1), unsafe.Pointer(&s.max)}
		for b := range s.buckets {
			words = append(words, unsafe.Pointer(&s.buckets[b]))
		}
		for _, w := range words {
			groups[i] = append(groups[i], uintptr(w)-uintptr(unsafe.Pointer(&h)))
		}
	}
	checkLineSeparated(t, "Histogram", groups, unsafe.Sizeof(h))
}

func TestCounterAddAllocs(t *testing.T) {
	var c Counter
	allocs := testing.AllocsPerRun(1000, func() { c.Add(1) })
	if allocs != 0 {
		t.Fatalf("Add allocates %.1f objects/op, want 0", allocs)
	}
}

func BenchmarkCounterAddParallel(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
	if c.Load() != uint64(b.N) {
		b.Fatalf("Load = %d after %d Adds", c.Load(), b.N)
	}
}

func BenchmarkHistogramRecordParallel(b *testing.B) {
	var h Histogram
	b.RunParallel(func(pb *testing.PB) {
		v := uint64(1000)
		for pb.Next() {
			h.Record(v)
			v = (v*7 + 1) & 0xffff
		}
	})
	if h.Count() != uint64(b.N) {
		b.Fatalf("Count = %d after %d Records", h.Count(), b.N)
	}
}
