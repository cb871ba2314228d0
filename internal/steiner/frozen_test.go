package steiner_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/fixtures"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/steiner"
)

// ctx is the no-deadline context of the equivalence sweeps (cancellation
// has its own tests in cancel_test.go).
var ctx = context.Background()

// assertSameTree fails unless the two trees are identical: same cover node
// set and same spanning tree edges. The frozen path is built to reproduce
// the mutable path bit-for-bit, not merely up to optimality.
func assertSameTree(t *testing.T, label string, mutable, frozen steiner.Tree, err1, err2 error) {
	t.Helper()
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("%s: error mismatch: mutable %v, frozen %v", label, err1, err2)
	}
	if err1 != nil {
		if err1.Error() != err2.Error() {
			t.Fatalf("%s: different errors: mutable %v, frozen %v", label, err1, err2)
		}
		return
	}
	if !mutable.Nodes.Equal(frozen.Nodes) {
		t.Fatalf("%s: node sets differ: mutable %v, frozen %v", label, mutable.Nodes, frozen.Nodes)
	}
	if len(mutable.Edges) != len(frozen.Edges) {
		t.Fatalf("%s: edge counts differ", label)
	}
	for i := range mutable.Edges {
		if mutable.Edges[i] != frozen.Edges[i] {
			t.Fatalf("%s: edge %d differs: mutable %v, frozen %v", label, i, mutable.Edges[i], frozen.Edges[i])
		}
	}
}

// fixtureSchemes returns every bipartite fixture of the paper that the
// solvers run on.
func fixtureSchemes() map[string]*bipartite.Graph {
	return map[string]*bipartite.Graph{
		"Fig2":  fixtures.Fig2(),
		"Fig3a": fixtures.Fig3a(),
		"Fig3b": fixtures.Fig3b(),
		"Fig3c": fixtures.Fig3c(),
		"Fig5":  fixtures.Fig5(),
		"Fig8":  fixtures.Fig8(),
		"Fig10": fixtures.Fig10(),
		"Fig11": fixtures.Fig11(),
	}
}

// terminalSets enumerates small terminal subsets of a graph for the
// equivalence sweeps.
func terminalSets(r *rand.Rand, n int) [][]int {
	sets := [][]int{{0}, {0, n - 1}}
	for k := 2; k <= 4 && k <= n; k++ {
		perm := r.Perm(n)
		sets = append(sets, perm[:k])
	}
	return sets
}

func TestAlgorithm2FrozenMatchesMutableOnFixtures(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for name, b := range fixtureSchemes() {
		g := b.G()
		fg := g.Freeze()
		for _, terms := range terminalSets(r, g.N()) {
			want, err1 := steiner.Algorithm2(g, terms)
			got, err2 := steiner.Algorithm2Frozen(ctx, fg, terms)
			assertSameTree(t, name, want, got, err1, err2)
		}
	}
}

func TestAlgorithm1FrozenMatchesMutableOnFixtures(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for name, b := range fixtureSchemes() {
		fb := b.Freeze()
		for _, terms := range terminalSets(r, b.N()) {
			want, err1 := steiner.Algorithm1(b, terms)
			got, err2 := steiner.Algorithm1Frozen(ctx, fb, terms)
			assertSameTree(t, name, want, got, err1, err2)
		}
	}
}

func TestFrozenSolversMatchMutableRandom(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	for trial := 0; trial < 25; trial++ {
		var b *bipartite.Graph
		switch trial % 3 {
		case 0:
			b = bipartite.FromHypergraph(gen.AlphaAcyclic(r, 6+r.Intn(20), 4, 3)).B
		case 1:
			b = bipartite.FromHypergraph(gen.GammaAcyclic(r, 6+r.Intn(20), 3, 3)).B
		default:
			b = gen.RandomBipartite(r, 4+r.Intn(10), 4+r.Intn(10), 0.3)
		}
		g := b.G()
		fb := b.Freeze()
		fg := fb.G()
		for _, terms := range terminalSets(r, g.N()) {
			want, err1 := steiner.Algorithm2(g, terms)
			got, err2 := steiner.Algorithm2Frozen(ctx, fg, terms)
			assertSameTree(t, "Algorithm2", want, got, err1, err2)

			want, err1 = steiner.Algorithm1(b, terms)
			got, err2 = steiner.Algorithm1Frozen(ctx, fb, terms)
			assertSameTree(t, "Algorithm1", want, got, err1, err2)

			order := r.Perm(g.N())
			want, err1 = steiner.EliminateOrdered(g, terms, order)
			got, err2 = steiner.EliminateOrderedFrozen(ctx, fg, terms, order)
			assertSameTree(t, "EliminateOrdered", want, got, err1, err2)

			if len(terms) <= 6 {
				want, err1 = steiner.Exact(g, terms)
				got, err2 = steiner.ExactFrozen(ctx, fg, terms)
				assertSameTree(t, "Exact", want, got, err1, err2)
			}

			want, err1 = steiner.Approximate(g, terms)
			got, err2 = steiner.ApproximateFrozen(ctx, fg, terms)
			assertSameTree(t, "Approximate", want, got, err1, err2)
		}
	}
}

func TestFrozenSolverErrors(t *testing.T) {
	// Two disconnected arcs: terminals spanning components must fail the
	// same way on both paths.
	b := bipartite.New()
	a1, a2 := b.AddV1("a1"), b.AddV1("a2")
	r1, r2 := b.AddV2("r1"), b.AddV2("r2")
	b.AddEdge(a1, r1)
	b.AddEdge(a2, r2)
	fb := b.Freeze()
	if _, err := steiner.Algorithm2Frozen(ctx, fb.G(), []int{a1, a2}); !errors.Is(err, steiner.ErrDisconnectedTerminals) {
		t.Errorf("Algorithm2Frozen across components: %v", err)
	}
	if _, err := steiner.Algorithm1Frozen(ctx, fb, []int{a1, a2}); !errors.Is(err, steiner.ErrDisconnectedTerminals) {
		t.Errorf("Algorithm1Frozen across components: %v", err)
	}
	if _, err := steiner.ExactFrozen(ctx, fb.G(), []int{a1, a2}); !errors.Is(err, steiner.ErrDisconnectedTerminals) {
		t.Errorf("ExactFrozen across components: %v", err)
	}
	if _, err := steiner.ApproximateFrozen(ctx, fb.G(), []int{a1, a2}); !errors.Is(err, steiner.ErrDisconnectedTerminals) {
		t.Errorf("ApproximateFrozen across components: %v", err)
	}
	if _, err := steiner.Algorithm2Frozen(ctx, fb.G(), nil); err == nil {
		t.Error("Algorithm2Frozen on empty terminals should fail")
	}

	// A non-alpha-acyclic component must be rejected by Algorithm 1 on both
	// paths.
	cyc := fixtures.Fig3c()
	terms := cyc.G().IDs("A", "B")
	if _, err := steiner.Algorithm1(cyc, terms); !errors.Is(err, steiner.ErrNotAlphaAcyclic) {
		t.Skipf("fixture unexpectedly alpha-acyclic: %v", err)
	}
	if _, err := steiner.Algorithm1Frozen(ctx, cyc.Freeze(), terms); !errors.Is(err, steiner.ErrNotAlphaAcyclic) {
		t.Errorf("Algorithm1Frozen should reject non-alpha-acyclic component, got %v", err)
	}
}

// TestFrozenSolversConcurrent hammers one frozen scheme from many
// goroutines; run with -race this asserts the advertised immutability.
func TestFrozenSolversConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	b := bipartite.FromHypergraph(gen.GammaAcyclic(r, 30, 3, 3)).B
	fb := b.Freeze()
	fg := fb.G()
	var termSets [][]int
	var wants []steiner.Tree
	for _, terms := range terminalSets(r, fg.N()) {
		if want, err := steiner.Algorithm2Frozen(ctx, fg, terms); err == nil {
			termSets = append(termSets, terms)
			wants = append(wants, want)
		}
	}
	if len(termSets) == 0 {
		t.Fatal("no connected terminal sets")
	}
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(seed int) {
			for i := 0; i < 20; i++ {
				k := (seed + i) % len(termSets)
				got, err := steiner.Algorithm2Frozen(ctx, fg, termSets[k])
				if err != nil {
					done <- err
					return
				}
				if !got.Nodes.Equal(wants[k].Nodes) {
					done <- errors.New("concurrent answer differs from sequential")
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// componentTerminalSets draws small terminal sets inside every connected
// component of fb, so each component's Lemma 1 ordering gets built.
func componentTerminalSets(r *rand.Rand, fb *bipartite.Frozen) [][]int {
	fg := fb.G()
	sc := graph.NewBitScratch(fg.N())
	covered := graph.NewBits(fg.N())
	var sets [][]int
	for v := 0; v < fg.N(); v++ {
		if covered.Has(v) {
			continue
		}
		mask, _ := fg.ComponentBits([]int{v}, sc)
		covered.Or(mask)
		members := mask.AppendOnes(nil)
		for k := 1; k <= 3 && k <= len(members); k++ {
			r.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
			sets = append(sets, append([]int(nil), members[:k]...))
		}
	}
	return sets
}

// TestAlgorithm1MemoMatchesMutable holds Algorithm 1's memoized Lemma 1
// orderings to the mutable path, which rebuilds the ordering on the
// induced subgraph every time. Every query is asked twice in shuffled
// order, so each component's ordering is built by whichever query reaches
// it first and read back by all the others.
func TestAlgorithm1MemoMatchesMutable(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	schemes := fixtureSchemes()
	for i := 0; i < 4; i++ {
		schemes[fmt.Sprintf("alpha%d", i)] = bipartite.FromHypergraph(gen.AlphaAcyclic(r, 6+r.Intn(20), 4, 3)).B
		schemes[fmt.Sprintf("gamma%d", i)] = bipartite.FromHypergraph(gen.GammaAcyclic(r, 6+r.Intn(20), 3, 3)).B
		schemes[fmt.Sprintf("random%d", i)] = gen.RandomBipartite(r, 4+r.Intn(10), 4+r.Intn(10), 0.2)
	}
	schemes["tree"] = gen.RandomTree(r, 150)
	schemes["grid"] = gen.GridBipartite(3, 4)
	schemes["union"] = gen.DisjointUnion(schemes["alpha0"], schemes["grid"], gen.RandomTree(r, 40))
	names := make([]string, 0, len(schemes))
	for name := range schemes {
		names = append(names, name)
	}
	sort.Strings(names)
	var solved, rejected int
	for _, name := range names {
		b := schemes[name]
		fb := b.Freeze()
		qs := append(terminalSets(r, b.N()), componentTerminalSets(r, fb)...)
		qs = append(qs, qs...)
		r.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
		for _, terms := range qs {
			want, err1 := steiner.Algorithm1(b, terms)
			got, err2 := steiner.Algorithm1Frozen(ctx, fb, terms)
			assertSameTree(t, fmt.Sprintf("%s %v", name, terms), want, got, err1, err2)
			switch {
			case err2 == nil:
				solved++
			case errors.Is(err2, steiner.ErrNotAlphaAcyclic):
				rejected++
			}
		}
	}
	if solved == 0 || rejected == 0 {
		t.Fatalf("%d solved and %d rejected queries: want both outcomes exercised", solved, rejected)
	}
	t.Logf("%d solved, %d rejected as not alpha-acyclic", solved, rejected)
}
