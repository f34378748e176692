// Package integration cross-checks the five index implementations
// against each other: the same operation stream must produce identical
// results from every tree, regardless of organization. Any divergence
// pinpoints a correctness bug in one structure that the per-tree suites
// may rationalize away.
package integration

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bptree"
	"repro/internal/core"
	"repro/internal/idx"
	"repro/internal/pbtree"
	"repro/internal/treetest"
)

// buildAll constructs one of each index over fresh substrates.
func buildAll(t testing.TB, pageSize int) []idx.Index {
	t.Helper()
	var out []idx.Index
	{
		env := treetest.NewEnv(pageSize, 1<<16)
		tr, err := bptree.New(bptree.Config{Pool: env.Pool, Model: env.Model, EnableJPA: true})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	{
		env := treetest.NewEnv(pageSize, 1<<16)
		tr, err := bptree.New(bptree.Config{Pool: env.Pool, Model: env.Model, MicroIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	{
		env := treetest.NewEnv(pageSize, 1<<16)
		tr, err := core.NewDiskFirst(core.DiskFirstConfig{Pool: env.Pool, Model: env.Model, EnableJPA: true})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	{
		env := treetest.NewEnv(pageSize, 1<<16)
		tr, err := core.NewCacheFirst(core.CacheFirstConfig{Pool: env.Pool, Model: env.Model, EnableJPA: true})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	{
		env := treetest.NewEnv(pageSize, 1<<16)
		tr, err := pbtree.New(pbtree.Config{Model: env.Model, Space: env.Pool.Space()})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	return out
}

// op is one differential operation.
type op struct {
	kind byte // 0 search, 1 insert, 2 delete, 3 scan, 4 reverse scan
	a, b uint32
}

// applyOne runs an op and returns a comparable result signature.
func applyOne(tr idx.Index, o op) (string, error) {
	switch o.kind {
	case 0:
		tid, ok, err := tr.Search(o.a)
		return fmt.Sprintf("s:%d:%v", tid, ok), err
	case 1:
		return "i", tr.Insert(o.a, o.a+7)
	case 2:
		ok, err := tr.Delete(o.a)
		return fmt.Sprintf("d:%v", ok), err
	case 3:
		lo, hi := o.a, o.b
		if lo > hi {
			lo, hi = hi, lo
		}
		var sum, n uint64
		_, err := tr.RangeScan(lo, hi, func(k idx.Key, tid idx.TupleID) bool {
			sum += uint64(k)*3 + uint64(tid)
			n++
			return true
		})
		return fmt.Sprintf("r:%d:%d", n, sum), err
	default:
		lo, hi := o.a, o.b
		if lo > hi {
			lo, hi = hi, lo
		}
		var sig, n uint64
		_, err := tr.RangeScanReverse(lo, hi, func(k idx.Key, tid idx.TupleID) bool {
			sig = sig*31 + uint64(k) + uint64(tid)
			n++
			return true
		})
		return fmt.Sprintf("v:%d:%d", n, sig), err
	}
}

func runDifferential(t *testing.T, pageSize, nBulk, nOps int, seed int64) {
	trees := buildAll(t, pageSize)
	es := treetest.GenEntries(nBulk, 50, 6)
	for _, tr := range trees {
		if err := tr.Bulkload(es, 0.85); err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	maxKey := uint32(nBulk*6 + 100)
	for i := 0; i < nOps; i++ {
		o := op{kind: byte(rng.Intn(5)), a: uint32(rng.Intn(int(maxKey))), b: uint32(rng.Intn(int(maxKey)))}
		var want string
		for j, tr := range trees {
			got, err := applyOne(tr, o)
			if err != nil {
				t.Fatalf("op %d on %s: %v", i, tr.Name(), err)
			}
			if j == 0 {
				want = got
			} else if got != want {
				t.Fatalf("op %d (%+v): %s returned %q, %s returned %q",
					i, o, trees[0].Name(), want, tr.Name(), got)
			}
		}
	}
	for _, tr := range trees {
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s after differential run: %v", tr.Name(), err)
		}
	}
	// Final full scans must agree entry for entry.
	var ref []idx.Entry
	if _, err := trees[0].RangeScan(0, 1<<31, func(k idx.Key, tid idx.TupleID) bool {
		ref = append(ref, idx.Entry{Key: k, TID: tid})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for _, tr := range trees[1:] {
		i := 0
		n, err := tr.RangeScan(0, 1<<31, func(k idx.Key, tid idx.TupleID) bool {
			if i >= len(ref) || ref[i] != (idx.Entry{Key: k, TID: tid}) {
				t.Fatalf("%s diverges from %s at entry %d", tr.Name(), trees[0].Name(), i)
			}
			i++
			return true
		})
		if err != nil || n != len(ref) {
			t.Fatalf("%s final scan: n=%d want %d err=%v", tr.Name(), n, len(ref), err)
		}
	}
}

func TestDifferential4K(t *testing.T)  { runDifferential(t, 4<<10, 20000, 4000, 1) }
func TestDifferential16K(t *testing.T) { runDifferential(t, 16<<10, 30000, 4000, 2) }
func TestDifferentialSmallTree(t *testing.T) {
	// Tiny trees stress root transitions in every structure.
	runDifferential(t, 4<<10, 10, 3000, 3)
}

// TestDifferentialQuick drives short random streams through all five
// trees under testing/quick.
func TestDifferentialQuick(t *testing.T) {
	f := func(seed int64) bool {
		trees := buildAll(t, 4<<10)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 300; i++ {
			o := op{kind: byte(rng.Intn(5)), a: uint32(rng.Intn(4000)), b: uint32(rng.Intn(4000))}
			var want string
			for j, tr := range trees {
				got, err := applyOne(tr, o)
				if err != nil {
					return false
				}
				if j == 0 {
					want = got
				} else if got != want {
					t.Logf("seed %d op %d (%+v): %q vs %q (%s)", seed, i, o, want, got, tr.Name())
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
