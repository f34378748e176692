// Package microindex_test is all that is left of internal/microindex:
// micro-indexing is now a page layout of internal/bptree, and that
// package's table-driven tests cover it in depth. This test-only
// directory reruns the black-box conformance and chaos suites over
// that layout under the test IDs they have always had
// (repro/internal/microindex:TestConformance4K/...), which the
// repository's test floor tracks by name.
package microindex_test

import (
	"fmt"
	"testing"

	"repro/internal/bptree"
	"repro/internal/idx"
	"repro/internal/treetest"
)

func factory(t *testing.T, env *treetest.Env) idx.Index {
	tr, err := bptree.New(bptree.Config{Pool: env.Pool, Model: env.Model, MicroIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestConformance4K(t *testing.T)  { treetest.Run(t, 4<<10, factory) }
func TestConformance16K(t *testing.T) { treetest.Run(t, 16<<10, factory) }

func TestChaos(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			treetest.RunChaos(t, 4<<10, factory, seed, 6000)
		})
	}
}
