package main

import (
	"math"
	"math/bits"
)

// hist is a log-linear latency histogram: values below 256 ns are exact,
// above that every power of two is cut into 128 equal buckets, so a
// reported quantile is within 0.8 % of the sample it stands for.
// (obs.Histogram has one bucket per power of two, which is why the old
// serving numbers read p50 = p99 = 2048 ns.)
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSubBits = 7
	histMaxBits = 40 // clamp at 2^40 ns ≈ 18 min
	histBuckets = (histMaxBits - histSubBits + 1) << histSubBits
)

func histBucket(v uint64) int {
	if v < 1<<(histSubBits+1) {
		return int(v)
	}
	if v >= 1<<histMaxBits {
		v = 1<<histMaxBits - 1
	}
	e := bits.Len64(v) - (histSubBits + 1)
	return e<<histSubBits + int(v>>e)
}

// histValue is the midpoint of bucket i.
func histValue(i int) float64 {
	if i < 1<<(histSubBits+1) {
		return float64(i)
	}
	e := i>>histSubBits - 1
	m := uint64(i - e<<histSubBits)
	return float64(m<<e) + float64(uint64(1)<<e)/2
}

func (h *hist) record(v uint64) {
	h.counts[histBucket(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func (h *hist) reset() { *h = hist{} }

// quantile returns the value at rank ceil(q·n), 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := max(uint64(math.Ceil(q*float64(h.n))), 1)
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= target {
			return histValue(i)
		}
	}
	return histValue(histBuckets - 1)
}

// meanBetween returns the mean of the samples ranked above floor(lo·n)
// up to ceil(hi·n), 0 when empty: the mean of a band of quantiles, which
// moves smoothly where a single quantile would jump from one side of a
// gap in the distribution to the other.
func (h *hist) meanBetween(lo, hi float64) float64 {
	first := uint64(math.Floor(lo * float64(h.n)))
	last := uint64(math.Ceil(hi * float64(h.n)))
	var seen, taken uint64
	var sum float64
	for i, c := range h.counts {
		from := seen
		seen += c
		if seen <= first || from >= last {
			continue
		}
		k := min(seen, last) - max(from, first)
		sum += float64(k) * histValue(i)
		taken += k
	}
	if taken == 0 {
		return 0
	}
	return sum / float64(taken)
}
