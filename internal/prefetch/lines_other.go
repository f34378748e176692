//go:build !amd64 && !arm64

package prefetch

import "unsafe"

// Lines does nothing: this architecture has no prefetch stub.
func Lines(p unsafe.Pointer, n int) {}
