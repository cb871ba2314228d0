package steiner_test

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/gen"
	"repro/internal/steiner"
)

// TestAlgorithm2FrozenZeroAlloc pins the zero-alloc contract of the hot
// serving path: with a warm scratch pool and a recycled result Tree, a
// steady-state Algorithm-2 query performs no heap allocation at all —
// the alive/terminal masks, the wave-kernel scratch and the spanning-tree
// buffers all come from the sync.Pool, and the result reuses the Tree's
// capacity. GC is disabled around the measurement so the pool cannot be
// drained mid-run (a GC cycle may legitimately drop pooled scratch; that
// is an amortized allocation, not a per-query one).
func TestAlgorithm2FrozenZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes sync.Pool drop items; allocs are expected")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	r := rand.New(rand.NewSource(23))
	scheme := gen.RandomTree(r, 256) // connected, (6,2)-chordal
	fg := scheme.Freeze().G()
	perm := r.Perm(fg.N())
	terminals := perm[:6]

	var tree steiner.Tree
	for i := 0; i < 3; i++ { // warm the pool and the tree's capacity
		if err := steiner.Algorithm2FrozenInto(ctx, fg, terminals, &tree); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := steiner.Algorithm2FrozenInto(ctx, fg, terminals, &tree); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Algorithm2FrozenInto allocates %.1f times per steady-state query, want 0", allocs)
	}
}

// TestAlgorithm1FrozenWarmAllocs pins the warm cost of an Algorithm-1
// query: once its component's Lemma 1 ordering is memoized on the
// bipartite.Frozen, a call floods the component, runs the elimination pass
// and renders the result Tree, so its only allocations are the result's
// node and edge slices growing. A call that rebuilds H¹ and its greedy
// edge order makes about 600 here, so the bound catches a bypassed memo.
func TestAlgorithm1FrozenWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes sync.Pool drop items; allocs are expected")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	r := rand.New(rand.NewSource(29))
	fb := gen.RandomTree(r, 256).Freeze() // connected, alpha-acyclic H¹
	perm := r.Perm(fb.N())
	terminals := perm[:6]

	for i := 0; i < 3; i++ { // build the memo entry and warm the pool
		if _, err := steiner.Algorithm1Frozen(ctx, fb, terminals); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := steiner.Algorithm1Frozen(ctx, fb, terminals); err != nil {
			t.Error(err)
		}
	})
	if allocs >= 32 {
		t.Fatalf("Algorithm1Frozen allocates %.1f times per warm query, want < 32", allocs)
	}
	t.Logf("%.1f allocations per warm query", allocs)
}
