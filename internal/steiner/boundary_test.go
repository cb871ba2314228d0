package steiner_test

// Word-boundary sweeps for the bit-parallel solver paths: every packed
// mask the solvers carry (alive, terminal, visited) has its off-by-one
// bugs at the 64-bit word seams, so the equivalence harness is pinned at
// node counts straddling them — a partially filled single word, exact
// word multiples, and one-past. Each size runs against both the
// matrix-backed frozen view and a matrix-stripped CSR view, so the wave
// kernel and the fallback are held to each other and to the recorded
// answers of testdata/answers.golden at every seam.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/graph"
	"repro/internal/steiner"
)

// solverBoundarySizes mirrors the kernel-level sweep in internal/graph:
// the shapes where padding-bit and last-word bugs live.
var solverBoundarySizes = []int{1, 63, 64, 65, 127, 128, 129}

// boundaryScheme builds a random bipartite scheme with exactly n nodes
// (ids alternate sides) and expected degree ~2.5, so alive masks always
// end in a partially filled word whenever n is not a word multiple.
func boundaryScheme(r *rand.Rand, n int) *bipartite.Graph {
	b := bipartite.New()
	var v1, v2 []int
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			v1 = append(v1, b.AddV1(fmt.Sprintf("a%d", i)))
		} else {
			v2 = append(v2, b.AddV2(fmt.Sprintf("r%d", i)))
		}
	}
	p := 2.5 / float64(n)
	for _, u := range v1 {
		for _, w := range v2 {
			if r.Float64() < p {
				b.AddEdge(u, w)
			}
		}
	}
	return b
}

// stripMatrix rebuilds the frozen views without the dense adjacency
// matrix, forcing every kernel call through the CSR fallback.
func stripMatrix(tb testing.TB, fb *bipartite.Frozen) (*graph.Frozen, *bipartite.Frozen) {
	fg := fb.G()
	offsets, neighbors := fg.CSR()
	gc, err := graph.RestoreFrozen(fg.NodeLabels(), offsets, neighbors, nil, 0)
	if err != nil {
		tb.Fatal(err)
	}
	fbc, err := bipartite.RestoreFrozen(gc, fb.Sides())
	if err != nil {
		tb.Fatal(err)
	}
	return gc, fbc
}

func TestFrozenSolversAtWordBoundaries(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	sweep := goldenSweep{name: "boundary"}
	for _, n := range solverBoundarySizes {
		for trial := 0; trial < 4; trial++ {
			scheme := fmt.Sprintf("n%d/t%d", n, trial)
			fb := boundaryScheme(r, n).Freeze()
			fg := fb.G()
			fgCSR, fbCSR := stripMatrix(t, fb)
			if !fg.HasMatrix() && n > 1 || fgCSR.HasMatrix() {
				t.Fatalf("n=%d: matrix presence wrong", n)
			}
			for _, terms := range terminalSets(r, n) {
				label := fmt.Sprintf("n=%d terms=%v", n, terms)

				got, err := steiner.Algorithm2FrozenShared(ctx, fg, terms, nil)
				gotCSR, errCSR := steiner.Algorithm2FrozenShared(ctx, fgCSR, terms, nil)
				assertSameTree(t, label+" Algorithm2 matrix/csr", got, gotCSR, err, errCSR)
				sweep.add(scheme, "Algorithm2", terms, got, err)

				got, err = steiner.Algorithm1FrozenShared(ctx, fb, terms, nil)
				gotCSR, errCSR = steiner.Algorithm1FrozenShared(ctx, fbCSR, terms, nil)
				assertSameTree(t, label+" Algorithm1 matrix/csr", got, gotCSR, err, errCSR)
				sweep.add(scheme, "Algorithm1", terms, got, err)

				order := r.Perm(n)
				got, err = steiner.EliminateOrderedFrozen(ctx, fg, terms, order)
				gotCSR, errCSR = steiner.EliminateOrderedFrozen(ctx, fgCSR, terms, order)
				assertSameTree(t, label+" EliminateOrdered matrix/csr", got, gotCSR, err, errCSR)
				sweep.add(scheme, "EliminateOrdered", terms, got, err)

				if len(terms) <= 5 {
					got, err = steiner.ExactFrozenShared(ctx, fg, terms, nil)
					gotCSR, errCSR = steiner.ExactFrozenShared(ctx, fgCSR, terms, nil)
					assertSameTree(t, label+" Exact matrix/csr", got, gotCSR, err, errCSR)
					sweep.add(scheme, "Exact", terms, got, err)
				}

				got, err = steiner.ApproximateFrozenShared(ctx, fg, terms, nil)
				gotCSR, errCSR = steiner.ApproximateFrozenShared(ctx, fgCSR, terms, nil)
				assertSameTree(t, label+" Approximate matrix/csr", got, gotCSR, err, errCSR)
				sweep.add(scheme, "Approximate", terms, got, err)
			}
		}
	}
	sweep.check(t)
}

// TestPooledScratchHammerAcrossSizes cycles many goroutines through
// schemes of different word-boundary sizes, so the pooled solver scratch
// is constantly resized across word seams while shared between queries.
// Under -race this pins both the pool's ownership discipline and the
// stale-word hygiene of recycled masks (a scratch shrunk from 129 to 63
// nodes must not leak bits of the larger scheme into the smaller one).
func TestPooledScratchHammerAcrossSizes(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	type testCase struct {
		fg    *graph.Frozen
		terms []int
		want  steiner.Tree
	}
	var cases []testCase
	for _, n := range solverBoundarySizes {
		b := boundaryScheme(r, n)
		fg := b.Freeze().G()
		for _, terms := range terminalSets(r, n) {
			if want, err := steiner.Algorithm2FrozenShared(ctx, fg, terms, nil); err == nil {
				cases = append(cases, testCase{fg: fg, terms: terms, want: want})
			}
		}
	}
	if len(cases) == 0 {
		t.Fatal("no connected boundary cases")
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				c := cases[(seed+i)%len(cases)]
				tree, err := steiner.Algorithm2FrozenShared(ctx, c.fg, c.terms, nil)
				if err != nil {
					errc <- fmt.Errorf("hammer: %v", err)
					return
				}
				if !tree.Nodes.Equal(c.want.Nodes) {
					errc <- fmt.Errorf("hammer: nodes differ on n=%d", c.fg.N())
					return
				}
				if _, err := steiner.ApproximateFrozenShared(ctx, c.fg, c.terms, nil); err != nil {
					errc <- fmt.Errorf("hammer approximate: %v", err)
					return
				}
			}
		}(w * 7)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
