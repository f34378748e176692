package latch

import (
	"sync"
	"testing"
	"time"
)

// TestSpinLockExcludes: SpinLock is a Lock — goroutines that take the
// mutex through it never overlap, whether they got it on a spin try or
// after parking behind a holder far slower than the spin budget.
func TestSpinLockExcludes(t *testing.T) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	n := 0
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				SpinLock(&mu)
				n++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if n != 4*20000 {
		t.Fatalf("counter = %d, want %d: critical sections overlapped", n, 4*20000)
	}

	mu.Lock()
	got := make(chan struct{})
	go func() {
		SpinLock(&mu)
		mu.Unlock()
		close(got)
	}()
	time.Sleep(5 * time.Millisecond)
	select {
	case <-got:
		t.Fatal("SpinLock returned while the mutex was held")
	default:
	}
	mu.Unlock()
	<-got
}
