package obs

import (
	"sync/atomic"
	_ "unsafe" // go:linkname
)

// stripes is how many copies of each Counter and Histogram exist, one
// per processor P (masked: Ps stripes apart share a copy). A power of
// two so the mask is one AND; eight covers the hosts the benchmark runs
// on while a Counter stays near a kilobyte.
const (
	stripes    = 8
	stripeMask = stripes - 1
)

// stripeGap is how far apart the stripes' words are laid out: two
// 64-byte cache lines, because x86's spatial prefetcher fetches a line
// together with the other half of its aligned 128-byte pair, and
// stripes one line apart measured as slow as one shared word at two
// processors.
const stripeGap = 128

// linePad separates an 8-byte word from the word stripeGap bytes before
// it, so that the two can never share a line or a line pair wherever
// the allocator puts the struct.
type linePad [stripeGap - 8]byte

// procPin and procUnpin are the runtime's pin of the calling goroutine
// to its P, which returns the P's id. The runtime keeps this pair
// reachable by linkname on purpose (go.dev/issue/67401); procpin.s lets
// this package declare them without bodies.
//
//go:linkname procPin runtime.procPin
func procPin() int

//go:linkname procUnpin runtime.procUnpin
func procUnpin()

// stripe returns the caller's stripe: the index of the P it runs on.
// The P is only pinned long enough to read its id; a goroutine that
// migrates before its atomic add lands on another stripe, which costs a
// shared line once and never a count.
func stripe() int {
	p := procPin()
	procUnpin()
	return p & stripeMask
}

// Counter is a monotonic event counter that a serving operation can bump
// without writing a cache line another processor writes: each P adds to
// its own stripe, and Load sums the stripes. Every stripe's word sits on
// its own 64-byte line pair, and so do the words of the fields around
// it. The zero value is ready to use; Add, Load and Store are safe for
// concurrent use. A Load racing Adds sees each stripe at some moment
// during the call, not all stripes at one instant.
type Counter struct {
	s [stripes]struct {
		_ linePad
		v atomic.Uint64
	}
	_ linePad
}

// Add adds n.
func (c *Counter) Add(n uint64) { c.s[stripe()].v.Add(n) }

// Load returns the sum of the stripes.
func (c *Counter) Load() uint64 {
	var v uint64
	for i := range c.s {
		v += c.s[i].v.Load()
	}
	return v
}

// Store sets the counter to v (stripe 0 takes v, the others zero).
func (c *Counter) Store(v uint64) {
	for i := range c.s {
		c.s[i].v.Store(0)
	}
	c.s[0].v.Store(v)
}
