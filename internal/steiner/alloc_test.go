package steiner_test

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"repro/internal/gen"
	"repro/internal/steiner"
)

// TestAlgorithm2FrozenWarmAllocs pins the allocation cost of the hot
// serving path: with a warm scratch pool, a steady-state Algorithm-2 query
// allocates only its result — the node and edge slices, each sized once
// from the alive count. The alive/terminal masks, the wave-kernel scratch
// and the spanning-tree queue all come from the sync.Pool. GC is disabled
// around the measurement so the pool cannot be drained mid-run (a GC cycle
// may legitimately drop pooled scratch; that is an amortized allocation,
// not a per-query one).
func TestAlgorithm2FrozenWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes sync.Pool drop items; allocs are expected")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	r := rand.New(rand.NewSource(23))
	scheme := gen.RandomTree(r, 256) // connected, (6,2)-chordal
	fg := scheme.Freeze().G()
	perm := r.Perm(fg.N())
	terminals := perm[:6]

	for i := 0; i < 3; i++ { // warm the pool
		if _, err := steiner.Algorithm2FrozenShared(ctx, fg, terminals, nil); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := steiner.Algorithm2FrozenShared(ctx, fg, terminals, nil); err != nil {
			t.Error(err)
		}
	})
	if allocs != 2 {
		t.Fatalf("Algorithm2FrozenShared allocates %.1f times per steady-state query, want 2 (the result's nodes and edges)", allocs)
	}
}

// TestAlgorithm1FrozenWarmAllocs pins the warm cost of an Algorithm-1
// query: once its component's Lemma 1 ordering is memoized on the
// bipartite.Frozen, a call floods the component, runs the elimination pass
// and renders the result Tree, so its only allocations are the result's
// node and edge slices. A call that rebuilds H¹ and its greedy edge order
// makes about 600 here.
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
		if _, err := steiner.Algorithm1FrozenShared(ctx, fb, terminals, nil); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := steiner.Algorithm1FrozenShared(ctx, fb, terminals, nil); err != nil {
			t.Error(err)
		}
	})
	if allocs != 2 {
		t.Fatalf("Algorithm1FrozenShared allocates %.1f times per warm query, want 2 (the result's nodes and edges)", allocs)
	}
}
