//go:build amd64 || arm64

package prefetch

import "unsafe"

// Lines prefetches the n cache lines holding p, p+64, …, p+64(n-1)
// into every cache level; n <= 0 prefetches nothing.
//
//go:noescape
func Lines(p unsafe.Pointer, n int)
