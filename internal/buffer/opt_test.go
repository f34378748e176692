package buffer

import "testing"

// newOptPool builds a small concurrent pool with one resident page and
// returns the pool and the page's ID. Tests that need the optimistic
// read path skip themselves when it is unsupported (race detector).
func newOptPool(t *testing.T) (*Pool, uint32) {
	t.Helper()
	p := NewConcurrentPool(NewMemStore(512), 8, 1)
	pg, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	pg.Data[0] = 0xAB
	pid := pg.ID
	p.Unpin(pg, true)
	if !p.OptSupported() {
		t.Skip("optimistic reads unsupported (race detector build)")
	}
	return p, pid
}

func TestReadOptValidateUntouched(t *testing.T) {
	p, pid := newOptPool(t)
	pg, ok := p.ReadOpt(pid)
	if !ok {
		t.Fatal("ReadOpt failed on a resident, unlatched page")
	}
	if pg.ID != pid || pg.Data[0] != 0xAB {
		t.Fatalf("ReadOpt snapshot wrong: id=%d data[0]=%#x", pg.ID, pg.Data[0])
	}
	if !p.ValidateOpt(pg) {
		t.Fatal("ValidateOpt failed with no intervening writer")
	}
	// Validation is repeatable: the snapshot stays good until a writer
	// or eviction touches the page.
	if !p.ValidateOpt(pg) {
		t.Fatal("second ValidateOpt failed")
	}
}

func TestReadOptRejectsWriteLocked(t *testing.T) {
	p, pid := newOptPool(t)
	p.Latches().Lock(pid)
	pg, ok := p.ReadOpt(pid)
	if ok {
		t.Fatal("ReadOpt succeeded on an exclusively latched page")
	}
	if pg.Miss() != OptRetry {
		t.Fatalf("resident but latched page: Miss() = %d, want OptRetry", pg.Miss())
	}
	p.Latches().Unlock(pid)
	if _, ok := p.ReadOpt(pid); !ok {
		t.Fatal("ReadOpt failed after the latch was released")
	}
}

func TestValidateOptSeesWriter(t *testing.T) {
	p, pid := newOptPool(t)
	pg, ok := p.ReadOpt(pid)
	if !ok {
		t.Fatal("ReadOpt failed")
	}
	p.Latches().Lock(pid)
	p.Latches().Unlock(pid)
	if p.ValidateOpt(pg) {
		t.Fatal("ValidateOpt passed across an exclusive latch section")
	}
}

func TestValidateOptSeesSharedReaders(t *testing.T) {
	// Shared latches must NOT invalidate optimistic snapshots: only
	// writers bump the version.
	p, pid := newOptPool(t)
	pg, ok := p.ReadOpt(pid)
	if !ok {
		t.Fatal("ReadOpt failed")
	}
	p.Latches().RLock(pid)
	p.Latches().RUnlock(pid)
	if !p.ValidateOpt(pg) {
		t.Fatal("ValidateOpt failed across a shared latch section")
	}
}

func TestValidateOptSeesFreePage(t *testing.T) {
	p, pid := newOptPool(t)
	pg, ok := p.ReadOpt(pid)
	if !ok {
		t.Fatal("ReadOpt failed")
	}
	if err := p.FreePage(pid); err != nil {
		t.Fatal(err)
	}
	if p.ValidateOpt(pg) {
		t.Fatal("ValidateOpt passed after FreePage recycled the pid")
	}
}

func TestValidateOptSeesEviction(t *testing.T) {
	// Evicting the frame and refilling it with another page must fail
	// validation even though the []byte snapshot still points at the
	// same backing array.
	p := NewConcurrentPool(NewMemStore(512), 2, 1)
	a, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	pidA := a.ID
	a.Data[0] = 0xAA
	p.Unpin(a, true)
	if !p.OptSupported() {
		t.Skip("optimistic reads unsupported (race detector build)")
	}
	pg, ok := p.ReadOpt(pidA)
	if !ok {
		t.Fatal("ReadOpt failed")
	}
	// Churn enough new pages through the 2-frame pool to evict A.
	for i := 0; i < 6; i++ {
		n, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(n, false)
	}
	if p.ValidateOpt(pg) {
		t.Fatal("ValidateOpt passed after the frame was evicted and reused")
	}
	// The evicted page now fails ReadOpt as absent — retrying cannot
	// help — through the stale fast slot and through the shard table
	// alike, and is readable again once a latched Get has paid the read.
	for try := 0; try < 2; try++ {
		miss, ok := p.ReadOpt(pidA)
		if ok {
			t.Fatal("ReadOpt succeeded on an evicted page")
		}
		if miss.Miss() != OptAbsent {
			t.Fatalf("evicted page, try %d: Miss() = %d, want OptAbsent", try, miss.Miss())
		}
	}
	if a, err = p.Get(pidA); err != nil {
		t.Fatal(err)
	}
	p.Unpin(a, false)
	if _, ok := p.ReadOpt(pidA); !ok {
		t.Fatal("ReadOpt failed after Get brought the page back")
	}
}

func TestReadOptMissReturnsFalse(t *testing.T) {
	p, pid := newOptPool(t)
	pg, ok := p.ReadOpt(pid + 1000)
	if ok {
		t.Fatal("ReadOpt fabricated a snapshot for a nonexistent page")
	}
	if pg.Miss() != OptAbsent {
		t.Fatalf("nonexistent page: Miss() = %d, want OptAbsent", pg.Miss())
	}
}
