package obs

import (
	"math/bits"
	"sync/atomic"
)

// histBuckets is the fixed bucket count: bucket i holds values whose
// bit length is i, i.e. [2^(i-1), 2^i), with bucket 0 holding zero.
// 65 buckets cover the full uint64 range, so Record never range-checks.
const histBuckets = 65

// Histogram is a fixed-bucket power-of-two latency histogram. Record
// is O(1), allocation-free, and safe for concurrent use. Like Counter it
// is striped per processor P: each stripe keeps its own buckets (whose
// total is its count), sum, min and max on cache lines no other stripe
// writes, so goroutines
// in the wall-clock serving mode record without contending, and the
// readers (Count, Quantile, Snapshot, Reset) merge the stripes. A read
// racing Records sees each stripe at some moment during the call, not
// all of them at one instant. The zero value is ready to use.
type Histogram struct {
	s [stripes]histStripe
	_ linePad
}

// histStripe is one P's share of a Histogram. It keeps no count word:
// the count is the sum of the buckets, one atomic add fewer per Record.
type histStripe struct {
	_       linePad
	buckets [histBuckets]atomic.Uint64
	sum     atomic.Uint64
	// minP1 holds min+1 so that 0 can mean "no observations yet" in the
	// zero value (CAS-published); max is a plain CAS-max.
	minP1 atomic.Uint64
	max   atomic.Uint64
}

// Record adds one observation.
func (h *Histogram) Record(v uint64) {
	s := &h.s[stripe()]
	s.buckets[bits.Len64(v)].Add(1)
	for {
		cur := s.minP1.Load()
		if cur != 0 && cur-1 <= v {
			break
		}
		if s.minP1.CompareAndSwap(cur, v+1) {
			break
		}
	}
	for {
		cur := s.max.Load()
		if v <= cur || s.max.CompareAndSwap(cur, v) {
			break
		}
	}
	s.sum.Add(v)
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 { return h.totals().count }

// histTotals is the stripes of a Histogram merged into one.
type histTotals struct {
	buckets                [histBuckets]uint64
	count, sum, minP1, max uint64
}

// totals merges the stripes.
func (h *Histogram) totals() histTotals {
	var t histTotals
	for i := range h.s {
		s := &h.s[i]
		t.sum += s.sum.Load()
		if m := s.minP1.Load(); m != 0 && (t.minP1 == 0 || m < t.minP1) {
			t.minP1 = m
		}
		t.max = max(t.max, s.max.Load())
		for b := range s.buckets {
			c := s.buckets[b].Load()
			t.buckets[b] += c
			t.count += c
		}
	}
	return t
}

// Quantile reports an upper bound for the q-quantile (q in [0,1]) at
// bucket granularity, without materializing a snapshot. It is the one
// power-of-two-bucket quantile estimator in the repository: fpbench's
// throughput report, the /snapshot JSON, and `fptree stats` all go
// through this math (directly or via HistSnapshot.Quantile), so every
// surface agrees on p50/p99.
func (h *Histogram) Quantile(q float64) uint64 {
	t := h.totals()
	if t.count == 0 {
		return 0
	}
	target := quantileTarget(q, t.count)
	var seen uint64
	for i, c := range t.buckets {
		if c == 0 {
			continue
		}
		seen += c
		if seen > target {
			return bucketUpperBound(i)
		}
	}
	return t.max
}

// quantileTarget converts a quantile into the rank of the observation
// that answers it.
func quantileTarget(q float64, count uint64) uint64 {
	target := uint64(q * float64(count))
	if target >= count {
		target = count - 1
	}
	return target
}

// bucketUpperBound is the exclusive upper bound of bucket i (0 marks
// the zero bucket; the last bucket saturates at MaxUint64).
func bucketUpperBound(i int) uint64 {
	if i == 0 {
		return 0
	}
	if i < 64 {
		return 1 << uint(i)
	}
	return ^uint64(0)
}

// Reset zeroes the histogram.
func (h *Histogram) Reset() {
	for i := range h.s {
		s := &h.s[i]
		for b := range s.buckets {
			s.buckets[b].Store(0)
		}
		s.sum.Store(0)
		s.minP1.Store(0)
		s.max.Store(0)
	}
}

// HistSnapshot is a JSON-friendly copy of a histogram. Buckets lists
// one {UpperBound, Count} pair per non-empty bucket, in value order;
// an upper bound of 2^i means the bucket held values in [2^(i-1), 2^i).
type HistSnapshot struct {
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	Min   uint64 `json:"min"`
	Max   uint64 `json:"max"`
	// P50 and P99 are bucket-granularity quantile upper bounds,
	// precomputed with the same estimator every reporting surface uses
	// (Histogram.Quantile).
	P50     uint64       `json:"p50"`
	P99     uint64       `json:"p99"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// HistBucket is one non-empty histogram bucket.
type HistBucket struct {
	UpperBound uint64 `json:"le"` // exclusive; 0 marks the zero bucket
	Count      uint64 `json:"count"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	t := h.totals()
	s := HistSnapshot{Count: t.count, Sum: t.sum, Max: t.max}
	if t.minP1 > 0 {
		s.Min = t.minP1 - 1
	}
	for i, c := range t.buckets {
		if c == 0 {
			continue
		}
		s.Buckets = append(s.Buckets, HistBucket{UpperBound: bucketUpperBound(i), Count: c})
	}
	s.P50 = s.Quantile(0.50)
	s.P99 = s.Quantile(0.99)
	return s
}

// Mean reports the average observation (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile reports an upper bound for the q-quantile (q in [0,1]),
// at bucket granularity. It agrees exactly with Histogram.Quantile on
// the same data.
func (s HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	target := quantileTarget(q, s.Count)
	var seen uint64
	for _, b := range s.Buckets {
		seen += b.Count
		if seen > target {
			return b.UpperBound
		}
	}
	return s.Max
}
