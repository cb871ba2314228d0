package steiner_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/chordality"
	"repro/internal/fixtures"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/intset"
	"repro/internal/reference"
	"repro/internal/steiner"
)

// pickTerminals selects k distinct random nodes of a connected graph.
func pickTerminals(r *rand.Rand, n, k int) []int {
	perm := r.Perm(n)
	return perm[:k]
}

// TestExactAgainstReference holds ExactFrozenShared to the brute-force
// minimum on small schemes of every shape: random connected, grids, trees,
// α-acyclic incidence graphs, and disjoint unions whose terminals lie in
// the later part, so that component-local ids differ from node ids. It
// draws 1 to 6 terminals from one component. Each answer must be a valid
// tree with the minimum node count. The tree drawn through a Shared from
// Precompute must equal the nil-Shared tree.
func TestExactAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for iter := 0; iter < 300; iter++ {
		var b *bipartite.Graph
		base := 0 // terminals are drawn from the component of a node ≥ base
		switch iter % 5 {
		case 0:
			b = gen.RandomConnectedBipartite(r, 2+r.Intn(4), 2+r.Intn(4), 0.3)
		case 1:
			b = gen.GridBipartite(2+r.Intn(2), 2+r.Intn(3))
		case 2:
			b = gen.RandomTree(r, 2+r.Intn(12))
		case 3:
			b = bipartite.FromHypergraph(gen.AlphaAcyclic(r, 2+r.Intn(4), 3, 2)).B
		default:
			first := gen.RandomConnectedBipartite(r, 2+r.Intn(3), 2+r.Intn(3), 0.4)
			base = first.N()
			b = gen.DisjointUnion(first, gen.RandomConnectedBipartite(r, 2+r.Intn(3), 2+r.Intn(3), 0.4))
		}
		g := b.G()
		comp := g.ComponentContaining([]int{base + r.Intn(g.N()-base)})
		k := min(1+r.Intn(6), len(comp))
		terms := make([]int, k)
		for i, j := range r.Perm(len(comp))[:k] {
			terms[i] = comp[j]
		}
		fg := g.Freeze()
		tree, err := steiner.ExactFrozenShared(ctx, fg, terms, nil)
		if err != nil {
			t.Fatalf("Exact failed on %v terms %v: %v", g, terms, err)
		}
		if err := tree.Validate(g, terms); err != nil {
			t.Fatalf("invalid exact tree on %v terms %v: %v", g, terms, err)
		}
		if want := reference.SteinerMinimumNodes(g, terms); tree.Nodes.Len() != want {
			t.Fatalf("Exact=%d brute=%d on %v terms %v", tree.Nodes.Len(), want, g, terms)
		}
		sh := steiner.NewShared(fg)
		if err := sh.Precompute(ctx, terms, true); err != nil {
			t.Fatal(err)
		}
		shared, err := steiner.ExactFrozenShared(ctx, fg, terms, sh)
		assertSameTree(t, fmt.Sprintf("Exact with Shared on %v terms %v", g, terms), tree, shared, nil, err)
	}
}

func TestExactEdgeCases(t *testing.T) {
	g := graph.NewWithNodes("a", "b")
	g.AddEdge(0, 1)
	fg := g.Freeze()
	tree, err := steiner.ExactFrozenShared(ctx, fg, []int{0}, nil)
	if err != nil || tree.Nodes.Len() != 1 {
		t.Errorf("singleton terminal: %v, %v", tree, err)
	}
	if _, err := steiner.ExactFrozenShared(ctx, fg, nil, nil); err == nil {
		t.Error("empty terminals accepted")
	}
	g.AddNode("iso")
	if _, err := steiner.ExactFrozenShared(ctx, g.Freeze(), []int{0, 2}, nil); !errors.Is(err, steiner.ErrDisconnectedTerminals) {
		t.Errorf("expected ErrDisconnectedTerminals, got %v", err)
	}
}

func TestAlgorithm2OnChordal62(t *testing.T) {
	// On (6,2)-chordal bipartite graphs Algorithm 2 must return a
	// node-minimum Steiner tree (Theorem 5), and MinimumTreeFrozenShared
	// one that is V2-minimum too. Workloads: incidence graphs of γ-acyclic
	// hypergraphs.
	r := rand.New(rand.NewSource(103))
	checked := 0
	for iter := 0; iter < 400 && checked < 120; iter++ {
		h := gen.GammaAcyclic(r, 2+r.Intn(5), 1+r.Intn(3), 1+r.Intn(3))
		b := bipartite.FromHypergraph(h).B
		g := b.G()
		if !g.IsConnected() || g.N() < 3 {
			continue
		}
		if !chordality.Classify(b).Chordal62 {
			t.Fatalf("workload not (6,2)-chordal: %v", h)
		}
		checked++
		k := 1 + r.Intn(4)
		if k > g.N() {
			k = g.N()
		}
		terms := pickTerminals(r, g.N(), k)
		tree, err := steiner.Algorithm2FrozenShared(ctx, g.Freeze(), terms, nil)
		if err != nil {
			t.Fatalf("Algorithm2 failed: %v", err)
		}
		if err := tree.Validate(g, terms); err != nil {
			t.Fatalf("invalid tree: %v", err)
		}
		want := reference.SteinerMinimumNodes(g, terms)
		if tree.Nodes.Len() != want {
			t.Fatalf("Algorithm2=%d optimum=%d on %v terms %v",
				tree.Nodes.Len(), want, g, terms)
		}
		// The (W, V1) pass is node-minimum and V2-minimum at once.
		both, err := steiner.MinimumTreeFrozenShared(ctx, b.Freeze(), terms, nil)
		if err != nil {
			t.Fatalf("MinimumTree failed: %v", err)
		}
		if err := both.Validate(g, terms); err != nil {
			t.Fatalf("invalid tree: %v", err)
		}
		if got, wantV2 := steiner.V2Count(b, both), reference.MinimumV2Count(b, terms); both.Nodes.Len() != want || got != wantV2 {
			t.Fatalf("MinimumTree: %d nodes (optimum %d), %d V2 nodes (optimum %d) on %v terms %v",
				both.Nodes.Len(), want, got, wantV2, g, terms)
		}
	}
	if checked < 50 {
		t.Fatalf("only %d usable samples", checked)
	}
}

func TestCorollary5AllOrderingsGood(t *testing.T) {
	// On (6,2)-chordal graphs EVERY elimination ordering yields a minimum
	// cover (Corollary 5).
	r := rand.New(rand.NewSource(107))
	checked := 0
	for iter := 0; iter < 200 && checked < 40; iter++ {
		h := gen.GammaAcyclic(r, 2+r.Intn(4), 1+r.Intn(3), 1+r.Intn(2))
		b := bipartite.FromHypergraph(h).B
		g := b.G()
		if !g.IsConnected() || g.N() < 3 {
			continue
		}
		checked++
		fg := g.Freeze()
		terms := pickTerminals(r, g.N(), 2+r.Intn(2))
		want := reference.SteinerMinimumNodes(g, terms)
		for trial := 0; trial < 6; trial++ {
			order := r.Perm(g.N())
			tree, err := steiner.EliminateOrderedFrozen(ctx, fg, terms, order)
			if err != nil {
				t.Fatalf("EliminateOrdered failed: %v", err)
			}
			if tree.Nodes.Len() != want {
				t.Fatalf("ordering %v gave %d, optimum %d on %v terms %v",
					order, tree.Nodes.Len(), want, g, terms)
			}
		}
	}
}

func TestLemma5NonredundantCoversAreMinimum(t *testing.T) {
	// Lemma 5: on a (6,2)-chordal bipartite graph every nonredundant cover
	// is minimum — all nonredundant covers have equal size.
	r := rand.New(rand.NewSource(109))
	checked := 0
	for iter := 0; iter < 200 && checked < 30; iter++ {
		h := gen.GammaAcyclic(r, 2+r.Intn(3), 1+r.Intn(2), 1+r.Intn(2))
		b := bipartite.FromHypergraph(h).B
		g := b.G()
		if !g.IsConnected() || g.N() < 3 || g.N() > 11 {
			continue
		}
		checked++
		terms := pickTerminals(r, g.N(), 2+r.Intn(2))
		covers := reference.NonredundantCovers(g, terms)
		if len(covers) == 0 {
			t.Fatalf("no nonredundant covers on connected graph %v", g)
		}
		size := covers[0].Len()
		for _, c := range covers {
			if c.Len() != size {
				t.Fatalf("Lemma 5 violated on %v terms %v: covers %v", g, terms, covers)
			}
		}
	}
}

func TestLemma4Fig10(t *testing.T) {
	// Fig 10 / Lemma 4: in a 6-cycle with one chord there is a
	// nonredundant path of length 4 between nodes at distance 2.
	b := fixtures.Fig10()
	g := b.G()
	bnode := g.MustID("B")
	anode := g.MustID("A")
	if g.Distance(anode, bnode) != 2 {
		t.Fatal("A and B should be at distance 2")
	}
	long := g.IDs("B", "2", "C", "3", "A")
	if !g.IsPath(long) {
		t.Fatal("long path broken")
	}
	if !reference.IsNonredundantCover(g, intset.FromSlice(long), []int{bnode, anode}) {
		t.Error("long path should induce a nonredundant cover")
	}
	if reference.IsMinimumCover(g, intset.FromSlice(long), []int{bnode, anode}) {
		t.Error("long path should not be minimum")
	}
}

func TestAlgorithm1OnAlphaAcyclic(t *testing.T) {
	// Algorithm 1 (Theorem 3): on V1-chordal, V1-conformal graphs the
	// result has the minimum possible number of V2 nodes, for a lone
	// terminal too. Workloads: incidence graphs of α-acyclic hypergraphs.
	r := rand.New(rand.NewSource(113))
	checked := 0
	for iter := 0; iter < 500 && checked < 150; iter++ {
		h := gen.AlphaAcyclic(r, 1+r.Intn(6), 1+r.Intn(4), 1+r.Intn(3))
		b := bipartite.FromHypergraph(h).B
		g := b.G()
		if !g.IsConnected() || g.N() < 3 {
			continue
		}
		checked++
		k := 1 + r.Intn(4)
		if k > g.N() {
			k = g.N()
		}
		terms := pickTerminals(r, g.N(), k)
		tree, err := steiner.Algorithm1FrozenShared(ctx, b.Freeze(), terms, nil)
		if err != nil {
			t.Fatalf("Algorithm1 failed on %v: %v", h, err)
		}
		if err := tree.Validate(g, terms); err != nil {
			t.Fatalf("invalid tree: %v", err)
		}
		got := steiner.V2Count(b, tree)
		want := reference.MinimumV2Count(b, terms)
		if got != want {
			t.Fatalf("Algorithm1 V2 count %d, optimum %d on %v terms %v",
				got, want, g, terms)
		}
	}
	if checked < 80 {
		t.Fatalf("only %d usable samples", checked)
	}
}

func TestAlgorithm1RejectsNonAcyclic(t *testing.T) {
	// A chordless 8-cycle: H¹ is a 4-edge cycle, not α-acyclic.
	b := bipartite.New()
	var ids []int
	for i := 0; i < 4; i++ {
		ids = append(ids, b.AddV1(string(rune('a'+i))))
		ids = append(ids, b.AddV2(string(rune('w'+i))))
	}
	for i := 0; i < 8; i++ {
		b.AddEdge(ids[i], ids[(i+1)%8])
	}
	_, err := steiner.Algorithm1FrozenShared(ctx, b.Freeze(), []int{ids[0], ids[4]}, nil)
	if !errors.Is(err, steiner.ErrNotAlphaAcyclic) {
		t.Errorf("expected ErrNotAlphaAcyclic, got %v", err)
	}
	_, err = steiner.MinimumTreeFrozenShared(ctx, b.Freeze(), []int{ids[0], ids[4]}, nil)
	if !errors.Is(err, steiner.ErrNotAlphaAcyclic) {
		t.Errorf("MinimumTreeFrozenShared: expected ErrNotAlphaAcyclic, got %v", err)
	}
}

func TestAlgorithm1DisconnectedTerminals(t *testing.T) {
	b := bipartite.New()
	a := b.AddV1("a")
	w := b.AddV2("w")
	b.AddEdge(a, w)
	c := b.AddV1("c")
	if _, err := steiner.Algorithm1FrozenShared(ctx, b.Freeze(), []int{a, c}, nil); !errors.Is(err, steiner.ErrDisconnectedTerminals) {
		t.Errorf("expected ErrDisconnectedTerminals, got %v", err)
	}
}

func TestLemma1OrderingProperties(t *testing.T) {
	// The ordering of Lemma 1, as bipartite.Frozen.Lemma1Order builds it
	// for a component: every suffix plus its neighbourhood induces a
	// connected subgraph, and the reversed running intersection property
	// holds.
	r := rand.New(rand.NewSource(127))
	checked := 0
	for iter := 0; iter < 300 && checked < 60; iter++ {
		h := gen.AlphaAcyclic(r, 2+r.Intn(5), 1+r.Intn(4), 1+r.Intn(2))
		b := bipartite.FromHypergraph(h).B
		g := b.G()
		if !g.IsConnected() {
			continue
		}
		checked++
		comp := graph.NewBits(g.N())
		comp.FillN(g.N())
		w, ok := b.Freeze().Lemma1Order(comp)
		if !ok {
			t.Fatalf("no Lemma 1 ordering on alpha-acyclic %v", h)
		}
		if len(w) != len(b.V2()) {
			t.Fatalf("ordering misses V2 nodes")
		}
		// Property (1): suffix ∪ Adj(suffix) connected.
		for i := 0; i < len(w); i++ {
			suffix := w[i:]
			alive := make([]bool, g.N())
			for _, v := range suffix {
				alive[v] = true
				for _, u := range g.Neighbors(v) {
					alive[u] = true
				}
			}
			if !g.Covers(alive, suffix) {
				t.Fatalf("suffix %d not connected on %v (order %v)", i, g, w)
			}
		}
		// Property (2): Adj(w_i) ∩ Adj(suffix after i) ⊆ Adj(w_j) for some
		// j > i.
		for i := 0; i < len(w)-1; i++ {
			var suffixAdj []int
			for _, v := range w[i+1:] {
				suffixAdj = append(suffixAdj, g.Neighbors(v)...)
			}
			inter := g.Neighbors(w[i]).Inter(intset.FromSlice(suffixAdj))
			if inter.Empty() {
				continue
			}
			ok := false
			for _, v := range w[i+1:] {
				if inter.SubsetOf(g.Neighbors(v)) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("property (2) fails at %d on %v (order %v)", i, g, w)
			}
		}
	}
}

func TestApproximateIsValidAndBounded(t *testing.T) {
	r := rand.New(rand.NewSource(131))
	for iter := 0; iter < 100; iter++ {
		b := gen.RandomConnectedBipartite(r, 2+r.Intn(4), 2+r.Intn(4), 0.3)
		g := b.G()
		k := 2 + r.Intn(3)
		if k > g.N() {
			k = g.N()
		}
		terms := pickTerminals(r, g.N(), k)
		tree, err := steiner.ApproximateFrozenShared(ctx, g.Freeze(), terms, nil)
		if err != nil {
			t.Fatalf("Approximate failed: %v", err)
		}
		if err := tree.Validate(g, terms); err != nil {
			t.Fatalf("invalid tree: %v", err)
		}
		opt := reference.SteinerMinimumNodes(g, terms)
		if tree.Nodes.Len() < opt {
			t.Fatalf("heuristic beat the optimum?! %d < %d", tree.Nodes.Len(), opt)
		}
		if tree.Nodes.Len() > 2*opt {
			t.Fatalf("heuristic exceeded 2x bound: %d > 2*%d", tree.Nodes.Len(), opt)
		}
	}
}

func TestFig6X3CReduction(t *testing.T) {
	inst := fixtures.Fig6Instance()
	if !inst.Solve() {
		t.Fatal("Fig 6 instance should be solvable ({c1, c3})")
	}
	red, err := steiner.ReduceX3C(inst)
	if err != nil {
		t.Fatal(err)
	}
	// The gadget is V1-chordal and V1-conformal (Theorem 2).
	if !chordality.Classify(red.B).AlphaV1() {
		t.Error("X3C gadget should be V1-chordal and V1-conformal")
	}
	// Steiner optimum ≤ 4q+1 iff the instance is solvable; here it is.
	opt := reference.SteinerMinimumNodes(red.B.G(), red.Terminals)
	if opt > red.Budget {
		t.Errorf("optimum %d exceeds budget %d for solvable instance", opt, red.Budget)
	}
	if opt != red.Budget {
		t.Errorf("optimum %d, expected exactly %d (3q+1 terminals + q triples)", opt, red.Budget)
	}
}

func TestX3CReductionEquivalenceRandom(t *testing.T) {
	// Theorem 2's equivalence on random instances: Steiner ≤ 4q+1 ⟺ X3C
	// solvable.
	r := rand.New(rand.NewSource(137))
	sawYes, sawNo := false, false
	for iter := 0; iter < 25; iter++ {
		q := 1 + r.Intn(2)
		inst := steiner.X3CInstance{Q: q, Triples: gen.RandomX3C(r, q, q+1+r.Intn(2), r.Intn(2) == 0)}
		red, err := steiner.ReduceX3C(inst)
		if err != nil {
			t.Fatal(err)
		}
		opt := reference.SteinerMinimumNodes(red.B.G(), red.Terminals)
		solvable := inst.Solve()
		within := opt != -1 && opt <= red.Budget
		if within != solvable {
			t.Fatalf("equivalence broken: opt=%d budget=%d solvable=%v inst=%+v",
				opt, red.Budget, solvable, inst)
		}
		if solvable {
			sawYes = true
		} else {
			sawNo = true
		}
	}
	if !sawYes || !sawNo {
		t.Skipf("coverage: yes=%v no=%v", sawYes, sawNo)
	}
}

func TestCSPCReduction(t *testing.T) {
	r := rand.New(rand.NewSource(139))
	for iter := 0; iter < 40; iter++ {
		g := gen.RandomChordalGraph(r, 3+r.Intn(5), 2)
		if !g.IsConnected() {
			continue
		}
		red := steiner.ReduceCSPC(g)
		if !chordality.Classify(red.B).V1Chordal {
			t.Fatalf("CSPC gadget should be V1-chordal for chordal %v", g)
		}
		// Min arcs of a connected subgraph over P in g = Steiner nodes − 1;
		// must equal the gadget's minimum V2 count.
		k := 2 + r.Intn(2)
		if k > g.N() {
			k = g.N()
		}
		terms := pickTerminals(r, g.N(), k)
		gadgetTerms := make([]int, len(terms))
		for i, p := range terms {
			gadgetTerms[i] = red.NodeVs[p]
		}
		wantArcs := reference.SteinerMinimumNodes(g, terms) - 1
		gotArcs := reference.MinimumV2Count(red.B, gadgetTerms)
		if gotArcs != wantArcs {
			t.Fatalf("CSPC equivalence broken on %v terms %v: gadget=%d direct=%d",
				g, terms, gotArcs, wantArcs)
		}
	}
}

func TestTheorem6Fig11(t *testing.T) {
	b := fixtures.Fig11()
	g := b.G()
	cl := chordality.Classify(b)
	if !cl.Chordal61 {
		t.Fatal("Fig 11 graph must be (6,1)-chordal")
	}
	if cl.Chordal62 {
		t.Fatal("Fig 11 graph must not be (6,2)-chordal (else Corollary 5 would apply)")
	}
	fg := g.Freeze()
	for _, tc := range fixtures.Fig11Cases() {
		lead := g.MustID(tc.Lead)
		terms := g.IDs(tc.Terminals...)
		opt := reference.SteinerMinimumNodes(g, terms)
		// Every ordering with tc.Lead before the other three of {A,B,1,2}
		// must fail; spot-check several such orderings including the
		// adversarial "lead first" one.
		for trial := 0; trial < 8; trial++ {
			order := leadFirstOrder(g, lead, trial)
			tree, err := steiner.EliminateOrderedFrozen(ctx, fg, terms, order)
			if err != nil {
				t.Fatal(err)
			}
			if tree.Nodes.Len() <= opt {
				t.Fatalf("case %s: ordering %v unexpectedly reached optimum %d",
					tc.Lead, order, opt)
			}
		}
	}
}

// leadFirstOrder builds deterministic orderings with the given node first,
// permuted by trial.
func leadFirstOrder(g *graph.Graph, lead, trial int) []int {
	r := rand.New(rand.NewSource(int64(trial)))
	rest := r.Perm(g.N())
	order := []int{lead}
	for _, v := range rest {
		if v != lead {
			order = append(order, v)
		}
	}
	return order
}

func TestFig11SomeOrderingFindsOptimumPerCase(t *testing.T) {
	// Sanity: the optimum IS reachable by elimination when the right hub
	// survives — e.g. for P = {3,C,4,D} an ordering eliminating 1, 2, B
	// early keeps A.
	b := fixtures.Fig11()
	g := b.G()
	terms := g.IDs("3", "C", "4", "D")
	opt := reference.SteinerMinimumNodes(g, terms)
	order := g.IDs("1", "2", "B", "E", "F", "5", "6", "A", "C", "D", "3", "4")
	tree, err := steiner.EliminateOrderedFrozen(ctx, g.Freeze(), terms, order)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Nodes.Len() != opt {
		t.Fatalf("good-for-this-P ordering gave %d, optimum %d", tree.Nodes.Len(), opt)
	}
}

func TestFig8CoverConcepts(t *testing.T) {
	b := fixtures.Fig8()
	g := b.G()
	terms := g.IDs("A", "C", "D")
	nonred := intset.FromSlice(g.IDs("A", "B", "C", "D", "1", "3"))
	minimum := intset.FromSlice(g.IDs("A", "C", "D", "2", "3"))
	if !reference.IsNonredundantCover(g, nonred, terms) {
		t.Error("{A,B,C,D,1,3} should be a nonredundant cover")
	}
	if reference.IsMinimumCover(g, nonred, terms) {
		t.Error("{A,B,C,D,1,3} should not be minimum")
	}
	if !reference.IsMinimumCover(g, minimum, terms) {
		t.Error("{A,C,D,2,3} should be minimum")
	}
	if !reference.IsNonredundantCover(g, minimum, terms) {
		t.Error("{A,C,D,2,3} should be nonredundant")
	}
}

func TestAlgorithm1PseudoVsSteinerGap(t *testing.T) {
	// The remark after Corollary 4: Algorithm 1's V2-minimum tree need not
	// be a Steiner tree. Here H¹ = {1 = {A,C,D}, 2 = {C,D,B}} is α-acyclic;
	// both C and D survive Algorithm 1 (neither is private to a single V2
	// node), so its tree has 6 nodes while the Steiner optimum is 5.
	b := bipartite.New()
	a := b.AddV1("A")
	bb := b.AddV1("B")
	c := b.AddV1("C")
	d := b.AddV1("D")
	w1 := b.AddV2("1")
	w2 := b.AddV2("2")
	for _, arc := range [][2]int{{a, w1}, {c, w1}, {d, w1}, {c, w2}, {d, w2}, {bb, w2}} {
		b.AddEdge(arc[0], arc[1])
	}
	terms := []int{a, bb}
	fb := b.Freeze()
	tree, err := steiner.Algorithm1FrozenShared(ctx, fb, terms, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := steiner.V2Count(b, tree), reference.MinimumV2Count(b, terms); got != want || got != 2 {
		t.Fatalf("V2 count %d, want %d (and 2)", got, want)
	}
	exact, err := steiner.ExactFrozenShared(ctx, fb.G(), terms, nil)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Nodes.Len() != 5 { // A-1-C-2-B
		t.Fatalf("Steiner optimum should be 5, got %d", exact.Nodes.Len())
	}
	if tree.Nodes.Len() <= exact.Nodes.Len() {
		t.Fatalf("expected the V2-minimum tree (%d nodes) to exceed the Steiner optimum (%d)",
			tree.Nodes.Len(), exact.Nodes.Len())
	}
}
