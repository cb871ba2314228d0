package chordality

import (
	"math/rand"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hypergraph"
)

// differentialCases draws schemes of up to about 200 nodes from every gen
// family, plus chordless cycles, disjoint unions and side swaps, so that
// each verdict comes out both ways.
func differentialCases(r *rand.Rand) []*bipartite.Graph {
	hyper := func(h *hypergraph.Hypergraph) *bipartite.Graph { return bipartite.FromHypergraph(h).B }
	var cs []*bipartite.Graph
	for i := 0; i < 60; i++ {
		m := 1 + r.Intn(40)
		cs = append(cs,
			hyper(gen.AlphaAcyclic(r, m, 3, 2)),
			hyper(gen.WithSubsetEdges(r, gen.AlphaAcyclic(r, m, 3, 2), 1+r.Intn(6))),
			hyper(gen.GammaAcyclic(r, m, 3, 3)),
			hyper(gen.BergeForest(r, m, 3)),
			hyper(gen.RandomHypergraph(r, 2+r.Intn(30), 1+r.Intn(30), 4)),
			gen.RandomTree(r, 1+r.Intn(200)),
			gen.RandomConnectedBipartite(r, 1+r.Intn(40), 1+r.Intn(40), 0.02+0.1*r.Float64()),
			bipartiteCycle(2+i%12),
			gen.DisjointUnion(gen.RandomTree(r, 1+r.Intn(20)), gen.CompleteBipartite(1+r.Intn(4), 1+r.Intn(4))),
		)
		dense := gen.RandomBipartite(r, 2+r.Intn(20), 2+r.Intn(20), 0.1+0.4*r.Float64())
		cs = append(cs, dense, dense.Swap())
	}
	for a := 1; a <= 10; a++ {
		for b := 1; b <= 10; b++ {
			cs = append(cs, gen.GridBipartite(a, b), gen.CompleteBipartite(a, b))
		}
	}
	for m := 1; m <= 8; m++ {
		cs = append(cs, hyper(gen.NestedChain(m, 1+m%3)))
	}
	return cs
}

// TestClassifyFrozenMatchesHypergraphs holds every ClassifyFrozen verdict
// to the hypergraph recognizers it replaced, built on H¹ and H² by
// Definition 2: Berge, γ and β acyclicity, Gilmore's conformality scan,
// GYO for α, and, for Vi-chordality, simplicial elimination on the
// primal graph. Every verdict must come out both ways at least 100 times,
// so no kernel passes by answering one way.
func TestClassifyFrozenMatchesHypergraphs(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	names := []string{"(4,1)", "(6,2)", "(6,1)", "V1-chordal", "V1-conformal", "V2-chordal", "V2-conformal", "α(H¹)", "α(H²)"}
	var seen [9][2]int
	for _, b := range differentialCases(r) {
		fb := b.Freeze()
		cl := ClassifyFrozen(fb)
		h1, h2 := fb.HypergraphV1().H, fb.HypergraphV2().H
		got := []bool{cl.Chordal41, cl.Chordal62, cl.Chordal61, cl.V1Chordal, cl.V1Conformal, cl.V2Chordal, cl.V2Conformal, cl.AlphaV1(), cl.AlphaV2()}
		want := []bool{h1.BergeAcyclic(), h1.GammaAcyclic(), h1.BetaAcyclic(),
			chordalBySimplicial(h1.PrimalGraph()), h1.Conformal(),
			chordalBySimplicial(h2.PrimalGraph()), h2.Conformal(),
			h1.AlphaAcyclic(), h2.AlphaAcyclic()}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: ClassifyFrozen says %v, the hypergraph route %v, on %v", names[i], got[i], want[i], b.G())
			}
			if got[i] {
				seen[i][1]++
			} else {
				seen[i][0]++
			}
		}
	}
	for i, s := range seen {
		if s[0] < 100 || s[1] < 100 {
			t.Errorf("%s came out false %d and true %d times; want each at least 100", names[i], s[0], s[1])
		}
	}
}

// chordalBySimplicial decides chordality without a search order: a graph
// is chordal iff deleting simplicial vertices (whose neighbours form a
// clique), over and over, deletes every vertex (Fulkerson & Gross 1965).
func chordalBySimplicial(g *graph.Graph) bool {
	dead := make([]bool, g.N())
	simplicial := func(v int) bool {
		var live []int
		for _, u := range g.Neighbors(v) {
			if !dead[u] {
				live = append(live, u)
			}
		}
		for i := range live {
			for _, w := range live[i+1:] {
				if !g.HasEdge(live[i], w) {
					return false
				}
			}
		}
		return true
	}
	for left := g.N(); left > 0; left-- {
		v := 0
		for v < g.N() && (dead[v] || !simplicial(v)) {
			v++
		}
		if v == g.N() {
			return false
		}
		dead[v] = true
	}
	return true
}

// FuzzClassifyFrozen holds every verdict on bipartite graphs of at most 10
// nodes to the literal Definition 4/5 checks of internal/reference. The
// input picks the side sizes and, bit by bit, the arcs between them.
func FuzzClassifyFrozen(f *testing.F) {
	f.Add(uint8(3), uint8(3), uint64(0b100_011_101)) // a 6-cycle with no chord
	f.Add(uint8(3), uint8(3), uint64(0b101_011_111)) // a 6-cycle with one chord
	f.Add(uint8(5), uint8(5), uint64(1<<25-1))       // K5,5
	f.Add(uint8(4), uint8(4), uint64(0b1001_1100_0110_0011))
	f.Add(uint8(7), uint8(3), uint64(0b1_0110_1011_0101_1010))
	f.Fuzz(func(t *testing.T, a, b uint8, arcs uint64) {
		n1 := int(a) % 11
		n2 := int(b) % (11 - n1)
		g := bipartite.New()
		for i := 0; i < n1; i++ {
			g.AddV1(string(rune('a' + i)))
		}
		for j := 0; j < n2; j++ {
			g.AddV2(string(rune('p' + j)))
		}
		for i := 0; i < n1; i++ {
			for j := 0; j < n2; j++ {
				if arcs>>(i*n2+j)&1 == 1 {
					g.AddEdge(i, n1+j)
				}
			}
		}
		checkAgainstReference(t, g, ClassifyFrozen(g.Freeze()))
	})
}
