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

// assertSameTree fails unless the two answers are identical: same error
// text, or same cover node set and same spanning tree edges in order — not
// merely equally good.
func assertSameTree(t *testing.T, label string, want, got steiner.Tree, err1, err2 error) {
	t.Helper()
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("%s: error mismatch: want %v, got %v", label, err1, err2)
	}
	if err1 != nil {
		if err1.Error() != err2.Error() {
			t.Fatalf("%s: different errors: want %v, got %v", label, err1, err2)
		}
		return
	}
	if !want.Nodes.Equal(got.Nodes) {
		t.Fatalf("%s: node sets differ: want %v, got %v", label, want.Nodes, got.Nodes)
	}
	if len(want.Edges) != len(got.Edges) {
		t.Fatalf("%s: edge counts differ", label)
	}
	for i := range want.Edges {
		if want.Edges[i] != got.Edges[i] {
			t.Fatalf("%s: edge %d differs: want %v, got %v", label, i, want.Edges[i], got.Edges[i])
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

// sortedNames returns the keys of schemes in order, so a sweep that draws
// terminal sets from one random source visits the schemes the same way on
// every run.
func sortedNames(schemes map[string]*bipartite.Graph) []string {
	names := make([]string, 0, len(schemes))
	for name := range schemes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// The sweeps below replay the mutable-graph solvers' answers recorded in
// testdata/answers.golden (see golden_test.go).

func TestAlgorithm2FrozenMatchesMutableOnFixtures(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	sweep := goldenSweep{name: "fixtures-algorithm2"}
	schemes := fixtureSchemes()
	for _, name := range sortedNames(schemes) {
		fg := schemes[name].G().Freeze()
		for _, terms := range terminalSets(r, fg.N()) {
			got, err := steiner.Algorithm2FrozenShared(ctx, fg, terms, nil)
			sweep.add(name, "Algorithm2", terms, got, err)
		}
	}
	sweep.check(t)
}

func TestAlgorithm1FrozenMatchesMutableOnFixtures(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	sweep := goldenSweep{name: "fixtures-algorithm1"}
	schemes := fixtureSchemes()
	for _, name := range sortedNames(schemes) {
		fb := schemes[name].Freeze()
		for _, terms := range terminalSets(r, fb.N()) {
			got, err := steiner.Algorithm1FrozenShared(ctx, fb, terms, nil)
			sweep.add(name, "Algorithm1", terms, got, err)
		}
	}
	sweep.check(t)
}

func TestFrozenSolversMatchMutableRandom(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	sweep := goldenSweep{name: "random"}
	for trial := 0; trial < 25; trial++ {
		scheme := fmt.Sprintf("t%02d", trial)
		var b *bipartite.Graph
		switch trial % 3 {
		case 0:
			b = bipartite.FromHypergraph(gen.AlphaAcyclic(r, 6+r.Intn(20), 4, 3)).B
		case 1:
			b = bipartite.FromHypergraph(gen.GammaAcyclic(r, 6+r.Intn(20), 3, 3)).B
		default:
			b = gen.RandomBipartite(r, 4+r.Intn(10), 4+r.Intn(10), 0.3)
		}
		fb := b.Freeze()
		fg := fb.G()
		for _, terms := range terminalSets(r, fg.N()) {
			got, err := steiner.Algorithm2FrozenShared(ctx, fg, terms, nil)
			sweep.add(scheme, "Algorithm2", terms, got, err)

			got, err = steiner.Algorithm1FrozenShared(ctx, fb, terms, nil)
			sweep.add(scheme, "Algorithm1", terms, got, err)

			order := r.Perm(fg.N())
			got, err = steiner.EliminateOrderedFrozen(ctx, fg, terms, order)
			sweep.add(scheme, "EliminateOrdered", terms, got, err)

			if len(terms) <= 6 {
				got, err = steiner.ExactFrozenShared(ctx, fg, terms, nil)
				sweep.add(scheme, "Exact", terms, got, err)
			}

			got, err = steiner.ApproximateFrozenShared(ctx, fg, terms, nil)
			sweep.add(scheme, "Approximate", terms, got, err)
		}
	}
	sweep.check(t)
}

func TestFrozenSolverErrors(t *testing.T) {
	// Two disconnected arcs: terminals spanning components must fail with
	// the sentinel error on every solver.
	b := bipartite.New()
	a1, a2 := b.AddV1("a1"), b.AddV1("a2")
	r1, r2 := b.AddV2("r1"), b.AddV2("r2")
	b.AddEdge(a1, r1)
	b.AddEdge(a2, r2)
	fb := b.Freeze()
	if _, err := steiner.Algorithm2FrozenShared(ctx, fb.G(), []int{a1, a2}, nil); !errors.Is(err, steiner.ErrDisconnectedTerminals) {
		t.Errorf("Algorithm2FrozenShared across components: %v", err)
	}
	if _, err := steiner.Algorithm1FrozenShared(ctx, fb, []int{a1, a2}, nil); !errors.Is(err, steiner.ErrDisconnectedTerminals) {
		t.Errorf("Algorithm1FrozenShared across components: %v", err)
	}
	if _, err := steiner.MinimumTreeFrozenShared(ctx, fb, []int{a1, a2}, nil); !errors.Is(err, steiner.ErrDisconnectedTerminals) {
		t.Errorf("MinimumTreeFrozenShared across components: %v", err)
	}
	if _, err := steiner.ExactFrozenShared(ctx, fb.G(), []int{a1, a2}, nil); !errors.Is(err, steiner.ErrDisconnectedTerminals) {
		t.Errorf("ExactFrozenShared across components: %v", err)
	}
	if _, err := steiner.ApproximateFrozenShared(ctx, fb.G(), []int{a1, a2}, nil); !errors.Is(err, steiner.ErrDisconnectedTerminals) {
		t.Errorf("ApproximateFrozenShared across components: %v", err)
	}
	if _, err := steiner.Algorithm2FrozenShared(ctx, fb.G(), nil, nil); err == nil {
		t.Error("Algorithm2FrozenShared on empty terminals should fail")
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
		if want, err := steiner.Algorithm2FrozenShared(ctx, fg, terms, nil); err == nil {
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
				got, err := steiner.Algorithm2FrozenShared(ctx, fg, termSets[k], nil)
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
// orderings to the recorded answers of the mutable path, which rebuilt the
// ordering on the induced subgraph every time. Every query is asked twice
// in shuffled order, so each component's ordering is built by whichever
// query reaches it first and read back by all the others.
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
	sweep := goldenSweep{name: "memo"}
	var solved, rejected int
	for _, name := range sortedNames(schemes) {
		b := schemes[name]
		fb := b.Freeze()
		qs := append(terminalSets(r, b.N()), componentTerminalSets(r, fb)...)
		qs = append(qs, qs...)
		r.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
		for _, terms := range qs {
			got, err := steiner.Algorithm1FrozenShared(ctx, fb, terms, nil)
			sweep.add(name, "Algorithm1", terms, got, err)
			switch {
			case err == nil:
				solved++
			case errors.Is(err, steiner.ErrNotAlphaAcyclic):
				rejected++
			}
		}
	}
	sweep.check(t)
	if solved == 0 || rejected == 0 {
		t.Fatalf("%d solved and %d rejected queries: want both outcomes exercised", solved, rejected)
	}
	t.Logf("%d solved, %d rejected as not alpha-acyclic", solved, rejected)
}
