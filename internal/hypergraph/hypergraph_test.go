package hypergraph

import (
	"math/rand"
	"testing"

	"repro/internal/intset"
)

// triangleH returns the 3-edge "pure triangle" hypergraph
// {a,b}, {b,c}, {c,a} — the canonical β-cycle (Fig 4 area of the paper).
func triangleH() *Hypergraph {
	h := New()
	h.AddEdgeLabels("e1", "a", "b")
	h.AddEdgeLabels("e2", "b", "c")
	h.AddEdgeLabels("e3", "c", "a")
	return h
}

// coveredTriangleH is the triangle plus an edge {a,b,c} covering it:
// α-acyclic but not β-acyclic (the classic separation).
func coveredTriangleH() *Hypergraph {
	h := triangleH()
	h.AddEdgeLabels("e0", "a", "b", "c")
	return h
}

// forestH is a Berge-acyclic hypergraph: edges pairwise sharing at most one
// node, no closed chain.
func forestH() *Hypergraph {
	h := New()
	h.AddEdgeLabels("e1", "a", "b")
	h.AddEdgeLabels("e2", "b", "c", "d")
	h.AddEdgeLabels("e3", "d", "e")
	return h
}

// betaNotGammaH is β-acyclic but not γ-acyclic: a special triangle
// (Definition 6) with nested structure. Edges {a,b}, {a,b,c... } chosen so
// nest-point elimination succeeds but the γ-triangle exists.
func betaNotGammaH() *Hypergraph {
	h := New()
	h.AddEdgeLabels("e1", "a", "b")
	h.AddEdgeLabels("e2", "b", "c")
	h.AddEdgeLabels("e3", "a", "b", "c")
	return h
}

// gammaNotBergeH is γ-acyclic but not Berge-acyclic: two edges sharing two
// nodes (a Berge 2-cycle) arranged nestedly.
func gammaNotBergeH() *Hypergraph {
	h := New()
	h.AddEdgeLabels("e1", "a", "b")
	h.AddEdgeLabels("e2", "a", "b", "c")
	return h
}

func TestBasics(t *testing.T) {
	h := forestH()
	if h.N() != 5 || h.M() != 3 || h.Size() != 7 {
		t.Fatalf("N=%d M=%d Size=%d", h.N(), h.M(), h.Size())
	}
	b := h.MustNodeID("b")
	if got := h.EdgesOf(b); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("EdgesOf(b) = %v", got)
	}
	if h.EdgeName(2) != "e3" {
		t.Errorf("EdgeName = %q", h.EdgeName(2))
	}
	if !h.IsConnected() {
		t.Error("forestH should be connected")
	}
	h2 := New()
	h2.AddEdgeLabels("x", "p", "q")
	h2.AddEdgeLabels("y", "r", "s")
	if h2.IsConnected() {
		t.Error("two disjoint edges reported connected")
	}
}

func TestEmptyEdgePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on empty edge")
		}
	}()
	New().AddEdge("bad")
}

func TestClassifyLadder(t *testing.T) {
	tests := []struct {
		name string
		h    *Hypergraph
		want Degree
	}{
		{"forest is Berge-acyclic (Fig 4a)", forestH(), DegreeBerge},
		{"nested pair is gamma, not Berge", gammaNotBergeH(), DegreeGamma},
		{"covered pair chain is beta, not gamma", betaNotGammaH(), DegreeBeta},
		{"covered triangle is alpha, not beta", coveredTriangleH(), DegreeAlpha},
		{"pure triangle is cyclic", triangleH(), DegreeCyclic},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.h.Classify(); got != tc.want {
				t.Errorf("Classify = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestDegreeString(t *testing.T) {
	if DegreeBeta.String() != "beta-acyclic" || DegreeCyclic.String() != "cyclic" {
		t.Error("Degree.String wrong")
	}
	if Degree(42).String() != "Degree(42)" {
		t.Error("unknown degree string")
	}
}

func TestHierarchyNesting(t *testing.T) {
	// Berge ⇒ γ ⇒ β ⇒ α on assorted hypergraphs, including random ones.
	hs := []*Hypergraph{triangleH(), coveredTriangleH(), forestH(),
		betaNotGammaH(), gammaNotBergeH()}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 120; i++ {
		hs = append(hs, randomH(r, 2+r.Intn(6), 2+r.Intn(5)))
	}
	for _, h := range hs {
		berge, gamma, beta, alpha := h.BergeAcyclic(), h.GammaAcyclic(), h.BetaAcyclic(), h.AlphaAcyclic()
		if berge && !gamma {
			t.Fatalf("Berge but not gamma: %v", h)
		}
		if gamma && !beta {
			t.Fatalf("gamma but not beta: %v", h)
		}
		if beta && !alpha {
			t.Fatalf("beta but not alpha: %v", h)
		}
	}
}

// randomH builds a random hypergraph with n nodes and m edges.
func randomH(r *rand.Rand, n, m int) *Hypergraph {
	h := New()
	for i := 0; i < n; i++ {
		h.AddNode(string(rune('a' + i)))
	}
	for i := 0; i < m; i++ {
		size := 1 + r.Intn(n)
		seen := map[int]bool{}
		var nodes []int
		for len(nodes) < size {
			v := r.Intn(n)
			if !seen[v] {
				seen[v] = true
				nodes = append(nodes, v)
			}
		}
		h.AddEdge("", nodes...)
	}
	return h
}

func TestBergeCycleWitness(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		h := randomH(r, 2+r.Intn(6), 2+r.Intn(5))
		bc := h.FindBergeCycle()
		if bc == nil {
			continue
		}
		q := len(bc.Edges)
		if q < 2 || len(bc.Nodes) != q {
			t.Fatalf("malformed witness %+v for %v", bc, h)
		}
		seenE, seenN := map[int]bool{}, map[int]bool{}
		for i := 0; i < q; i++ {
			if seenE[bc.Edges[i]] || seenN[bc.Nodes[i]] {
				t.Fatalf("repeated edge/node in witness %+v for %v", bc, h)
			}
			seenE[bc.Edges[i]] = true
			seenN[bc.Nodes[i]] = true
			e1 := h.Edge(bc.Edges[i])
			e2 := h.Edge(bc.Edges[(i+1)%q])
			if !e1.Contains(bc.Nodes[i]) || !e2.Contains(bc.Nodes[i]) {
				t.Fatalf("node %d not shared by consecutive edges in %+v for %v", bc.Nodes[i], bc, h)
			}
		}
	}
}

func TestGammaTriangleWitness(t *testing.T) {
	h := betaNotGammaH()
	tr := h.FindGammaTriangle()
	if tr == nil {
		t.Fatal("expected a gamma triangle")
	}
	e1, e2, e3 := h.Edge(tr.E1), h.Edge(tr.E2), h.Edge(tr.E3)
	if !e1.Contains(tr.N1) || !e2.Contains(tr.N1) || e3.Contains(tr.N1) {
		t.Errorf("n1 condition violated: %+v", tr)
	}
	if !e2.Contains(tr.N2) || !e3.Contains(tr.N2) || e1.Contains(tr.N2) {
		t.Errorf("n2 condition violated: %+v", tr)
	}
	if !e3.Contains(tr.N3) || !e1.Contains(tr.N3) {
		t.Errorf("n3 condition violated: %+v", tr)
	}
	if tr.N1 == tr.N2 || tr.N1 == tr.N3 || tr.N2 == tr.N3 {
		t.Errorf("witness nodes not distinct: %+v", tr)
	}
	if forestH().FindGammaTriangle() != nil {
		t.Error("forest has a gamma triangle")
	}
}

func TestDualInvolution(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 150; i++ {
		h := randomH(r, 2+r.Intn(6), 1+r.Intn(5))
		dd := h.Dual().Dual()
		if !dd.Equal(h) {
			t.Fatalf("dual(dual(h)) != h for %v; got %v", h, dd)
		}
	}
}

func TestDualDropsIsolatedNodes(t *testing.T) {
	h := New()
	h.AddNode("iso")
	h.AddEdgeLabels("e", "a", "b")
	d := h.Dual()
	if d.N() != 1 || d.M() != 2 {
		t.Fatalf("dual N=%d M=%d, want 1, 2", d.N(), d.M())
	}
}

func TestCorollary1SelfDuality(t *testing.T) {
	// Berge-, γ-, β-acyclicity are self-dual (Corollary 1); α is not.
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 250; i++ {
		h := randomH(r, 2+r.Intn(6), 2+r.Intn(5))
		d := h.Dual()
		if h.BergeAcyclic() != d.BergeAcyclic() {
			t.Fatalf("Berge not self-dual on %v", h)
		}
		if h.GammaAcyclic() != d.GammaAcyclic() {
			t.Fatalf("gamma not self-dual on %v", h)
		}
		if h.BetaAcyclic() != d.BetaAcyclic() {
			t.Fatalf("beta not self-dual on %v", h)
		}
	}
	// The paper's Fig 2-style witness that α-acyclicity is NOT self-dual:
	// triangle covered by a big edge is α-acyclic, its dual is not.
	h := coveredTriangleH()
	if !h.AlphaAcyclic() {
		t.Fatal("covered triangle should be alpha-acyclic")
	}
	if h.Dual().AlphaAcyclic() {
		t.Fatal("dual of covered triangle should be alpha-cyclic (Corollary 1 remark)")
	}
}

func TestPrimalGraph(t *testing.T) {
	h := forestH()
	g := h.PrimalGraph()
	if g.N() != 5 {
		t.Fatalf("primal N = %d", g.N())
	}
	a, b, c, d, e := h.MustNodeID("a"), h.MustNodeID("b"), h.MustNodeID("c"), h.MustNodeID("d"), h.MustNodeID("e")
	for _, pair := range [][2]int{{a, b}, {b, c}, {b, d}, {c, d}, {d, e}} {
		if !g.HasEdge(pair[0], pair[1]) {
			t.Errorf("primal missing edge %v", pair)
		}
	}
	if g.HasEdge(a, c) || g.HasEdge(a, e) || g.HasEdge(c, e) {
		t.Error("primal has spurious edge")
	}
}

func TestConformal(t *testing.T) {
	if !forestH().Conformal() {
		t.Error("forest should be conformal")
	}
	// Pure triangle: {a,b,c} is a clique of the primal graph contained in
	// no edge.
	h := triangleH()
	if h.Conformal() {
		t.Error("triangle should not be conformal")
	}
	w := h.ConformalWitness()
	if w.Len() < 3 {
		t.Fatalf("witness %v too small", w)
	}
	g := h.PrimalGraph()
	for i := 0; i < w.Len(); i++ {
		for j := i + 1; j < w.Len(); j++ {
			if !g.HasEdge(w[i], w[j]) {
				t.Errorf("witness %v is not a clique", w)
			}
		}
	}
	for i := 0; i < h.M(); i++ {
		if w.SubsetOf(h.Edge(i)) {
			t.Errorf("witness %v contained in edge %d", w, i)
		}
	}
	if coveredTriangleH().ConformalWitness() != nil {
		t.Error("covered triangle should be conformal")
	}
}

func TestGYO(t *testing.T) {
	res := coveredTriangleH().GYO()
	if !res.Acyclic || len(res.EliminationOrder) != 4 {
		t.Errorf("GYO on covered triangle: %+v", res)
	}
	res = triangleH().GYO()
	if res.Acyclic || len(res.Core) != 3 {
		t.Errorf("GYO on triangle: %+v", res)
	}
}

func TestGYODuplicateEdges(t *testing.T) {
	h := New()
	h.AddEdgeLabels("e1", "a", "b")
	h.AddEdgeLabels("e2", "a", "b")
	if !h.GYO().Acyclic {
		t.Error("duplicate pair should be alpha-acyclic")
	}
}

func TestJoinTreeAndRIP(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	count := 0
	for i := 0; i < 600 || count < 60; i++ {
		if i > 6000 {
			t.Fatal("not enough acyclic samples")
		}
		h := randomH(r, 2+r.Intn(6), 1+r.Intn(5))
		if !h.AlphaAcyclic() {
			if _, ok := h.JoinTree(); ok {
				t.Fatalf("join tree produced for cyclic %v", h)
			}
			continue
		}
		count++
		parent, ok := h.JoinTree()
		if !ok {
			t.Fatalf("no join tree for acyclic %v", h)
		}
		if !h.VerifyJoinTree(parent) {
			t.Fatalf("join tree property violated for %v: %v", h, parent)
		}
	}
}

func TestVerifyRunningIntersectionDetectsViolation(t *testing.T) {
	// Order the covered triangle with the big edge last: {a,b} then {b,c}
	// then {c,a} violates RIP at the third edge ({c,a} ∩ {a,b,c} = {c,a}
	// is in no single earlier edge).
	h := coveredTriangleH()
	if bad := h.VerifyRunningIntersection([]int{0, 1, 2, 3}); bad != 2 {
		t.Errorf("violation at %d, want 2", bad)
	}
	if bad := h.VerifyRunningIntersection([]int{3, 0, 1, 2}); bad != -1 {
		t.Errorf("big-edge-first should satisfy RIP, got violation at %d", bad)
	}
}

func TestPartial(t *testing.T) {
	h := coveredTriangleH()
	p := h.Partial([]int{0, 1, 2})
	if p.M() != 3 {
		t.Fatalf("partial M = %d", p.M())
	}
	if p.AlphaAcyclic() {
		t.Error("triangle partial hypergraph should be cyclic")
	}
	// β-acyclicity is closed under taking partial hypergraphs; the covered
	// triangle is not β-acyclic and here is the witness subfamily.
	if h.BetaAcyclic() {
		t.Error("covered triangle should not be beta-acyclic")
	}
}

func TestEqual(t *testing.T) {
	a := forestH()
	b := forestH()
	if !a.Equal(b) {
		t.Error("identical hypergraphs not Equal")
	}
	c := forestH()
	c.AddEdgeLabels("extra", "a", "e")
	if a.Equal(c) {
		t.Error("different hypergraphs Equal")
	}
	// Node ids may differ as long as labels and edges agree.
	d := New()
	d.AddNode("e")
	d.AddNode("d")
	d.AddEdgeLabels("x", "d", "e")
	d.AddEdgeLabels("y", "b", "a")
	d.AddEdgeLabels("z", "c", "b", "d")
	if !a.Equal(d) {
		t.Error("relabelled-id hypergraphs should be Equal")
	}
}

func TestCloneIndependence(t *testing.T) {
	h := forestH()
	c := h.Clone()
	c.AddEdgeLabels("w", "a", "e")
	if h.M() != 3 {
		t.Error("Clone not independent")
	}
}

func TestNestPointHelper(t *testing.T) {
	edges := []intset.Set{intset.New(0, 1), intset.New(0, 1, 2), intset.New(1, 2)}
	if !nestPoint(edges, 0) {
		t.Error("0 should be a nest point ({0,1} ⊆ {0,1,2})")
	}
	if nestPoint(edges, 1) {
		t.Error("1 should not be a nest point ({0,1} vs {1,2} incomparable)")
	}
	if !nestPoint(edges, 3) {
		t.Error("absent node is vacuously a nest point")
	}
}
