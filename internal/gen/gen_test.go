package gen

import (
	"math/rand"
	"testing"

	"repro/internal/chordality"
	"repro/internal/reference"
)

func TestAlphaAcyclicFamily(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		h := AlphaAcyclic(r, 1+r.Intn(8), 1+r.Intn(4), 1+r.Intn(3))
		if !h.AlphaAcyclic() {
			t.Fatalf("AlphaAcyclic generator produced cyclic %v", h)
		}
	}
}

func TestGammaAcyclicFamily(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		h := GammaAcyclic(r, 1+r.Intn(8), 1+r.Intn(3), 1+r.Intn(3))
		if !h.GammaAcyclic() {
			t.Fatalf("GammaAcyclic generator produced non-gamma %v", h)
		}
	}
}

func TestNestedChainGamma(t *testing.T) {
	for m := 1; m <= 6; m++ {
		h := NestedChain(m, 2)
		if !h.GammaAcyclic() {
			t.Fatalf("NestedChain(%d, 2) not gamma-acyclic", m)
		}
	}
}

func TestBergeForestFamily(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		h := BergeForest(r, 1+r.Intn(8), 1+r.Intn(3))
		if !h.BergeAcyclic() {
			t.Fatalf("BergeForest generator produced Berge-cyclic %v", h)
		}
	}
}

func TestCompleteBipartite62(t *testing.T) {
	for _, dims := range [][2]int{{2, 2}, {3, 3}, {4, 3}, {5, 2}} {
		b := CompleteBipartite(dims[0], dims[1])
		if !chordality.Classify(b).Chordal62 {
			t.Errorf("K_{%d,%d} should be (6,2)-chordal", dims[0], dims[1])
		}
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		b := RandomTree(r, 1+r.Intn(15))
		if !b.Freeze().G().IsForest() || !b.G().IsConnected() {
			t.Fatal("RandomTree not a tree")
		}
		if !chordality.Classify(b).Chordal41 {
			t.Fatal("tree not (4,1)-chordal")
		}
	}
}

func TestGridIsCyclicControl(t *testing.T) {
	b := GridBipartite(3, 4)
	if b.N() != 12 || !b.G().IsConnected() {
		t.Fatalf("grid shape wrong: N=%d", b.N())
	}
	cl := chordality.Classify(b)
	if cl.Chordal61 {
		t.Error("3x4 grid should not be (6,1)-chordal")
	}
	if cl.V1Chordal && cl.V1Conformal {
		t.Error("3x4 grid should not have alpha-acyclic H1")
	}
}

func TestRandomChordalGraph(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		g := RandomChordalGraph(r, 2+r.Intn(8), 1+r.Intn(4))
		if !chordality.IsChordal(g.Freeze()) {
			t.Fatalf("RandomChordalGraph produced non-chordal %v", g)
		}
		if g.N() <= 8 && !reference.IsChordalGraph(g) {
			t.Fatalf("reference disagrees on %v", g)
		}
	}
}

func TestRandomConnectedBipartite(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 80; i++ {
		b := RandomConnectedBipartite(r, 1+r.Intn(6), 1+r.Intn(6), r.Float64()*0.5)
		if !b.G().IsConnected() {
			t.Fatal("RandomConnectedBipartite produced disconnected graph")
		}
	}
}

func TestRandomX3CPlanted(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		q := 1 + r.Intn(3)
		triples := RandomX3C(r, q, q+r.Intn(4), true)
		if len(triples) < q {
			t.Fatal("too few triples")
		}
		for _, tr := range triples {
			for _, e := range tr {
				if e < 0 || e >= 3*q {
					t.Fatal("element out of range")
				}
			}
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := AlphaAcyclic(rand.New(rand.NewSource(9)), 6, 3, 2)
	b := AlphaAcyclic(rand.New(rand.NewSource(9)), 6, 3, 2)
	if !a.Equal(b) {
		t.Error("AlphaAcyclic not deterministic for a fixed seed")
	}
}

func TestDisjointUnion(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	tree, grid := RandomTree(r, 9), GridBipartite(2, 3)
	u := DisjointUnion(tree, grid, tree)
	if u.N() != 2*tree.N()+grid.N() || u.M() != 2*tree.M()+grid.M() {
		t.Fatalf("union has %d nodes, %d arcs", u.N(), u.M())
	}
	if got := len(u.G().Components()); got != 3 {
		t.Fatalf("union has %d components, want 3", got)
	}
	for v := 0; v < grid.N(); v++ {
		if u.Side(tree.N()+v) != grid.Side(v) {
			t.Fatalf("side of grid node %d not kept", v)
		}
	}
}
