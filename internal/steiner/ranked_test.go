package steiner_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/intset"
	"repro/internal/reference"
	"repro/internal/steiner"
)

// rankedCase is one RankedCovers query.
type rankedCase struct {
	name          string
	g             *graph.Graph
	terms         []int
	maxAux, limit int
}

// hubScheme is the scheme where a depth-first, capped enumeration in id
// order misses the smallest interpretation: three V1 terminals, ten V2
// nodes joining t0–t1, ten joining t1–t2, and one hub z, added last,
// joining all three. It returns the graph, the terminals and z.
func hubScheme() (*graph.Graph, []int, int) {
	b := bipartite.New()
	t := []int{b.AddV1("t0"), b.AddV1("t1"), b.AddV1("t2")}
	for i := 0; i < 20; i++ {
		w := b.AddV2(fmt.Sprintf("w%d", i))
		b.AddEdge(t[i/10], w)
		b.AddEdge(t[i/10+1], w)
	}
	z := b.AddV2("z")
	for _, ti := range t {
		b.AddEdge(ti, z)
	}
	return b.G(), t, z
}

// TestRankedCoversAgainstReference holds RankedCovers to the brute-force
// ranking of reference.RankedConnections: the same sets in the same
// order. The random schemes cover the generator families with 1–3
// terminals, max_aux 0–3 and limit 1–6. K(16,48) holds the widest
// levels: an opposite-side terminal pair's five best sets lie among 705
// valid 2-auxiliary sets. Two cases need more than the first valid sets a
// depth-first walk in id order meets: the hub scheme, where {t0,t1,t2,z}
// must come first, and K(16,48) with terminals 2, 20 and 30, whose
// one-auxiliary sets via 10 and 11 outrank those via 3 to 9. Every oracle
// set's auxiliary nodes must also lie within ⌈a/2⌉ of a terminal, the
// radius RankedCovers draws them from.
func TestRankedCoversAgainstReference(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	var cases []rankedCase
	families := []struct {
		name string
		make func() *bipartite.Graph
	}{
		{"random", func() *bipartite.Graph { return gen.RandomConnectedBipartite(r, 2+r.Intn(4), 2+r.Intn(4), 0.35) }},
		{"tree", func() *bipartite.Graph { return gen.RandomTree(r, 4+r.Intn(10)) }},
		{"grid", func() *bipartite.Graph { return gen.GridBipartite(2+r.Intn(2), 2+r.Intn(3)) }},
		{"complete", func() *bipartite.Graph { return gen.CompleteBipartite(1+r.Intn(4), 1+r.Intn(5)) }},
		{"alpha", func() *bipartite.Graph {
			return bipartite.FromHypergraph(gen.WithSubsetEdges(r, gen.AlphaAcyclic(r, 2+r.Intn(3), 2, 2), r.Intn(3))).B
		}},
	}
	for i := 0; i < 80; i++ {
		for _, fam := range families {
			g := fam.make().G()
			k := min(1+r.Intn(3), g.N())
			cases = append(cases, rankedCase{fam.name, g, r.Perm(g.N())[:k], r.Intn(4), 1 + r.Intn(6)})
		}
	}
	hub, hubTerms, z := hubScheme()
	cases = append(cases, rankedCase{"hub", hub, hubTerms, 2, 5})
	kb := gen.CompleteBipartite(16, 48)
	for _, terms := range [][]int{{0, 16}, {3, 40}, {9, 63}, {15, 17}, {2, 20, 30}, {12, 16, 63}} {
		cases = append(cases, rankedCase{"K16,48", kb.G(), terms, 2, 5})
	}

	for _, c := range cases {
		got, err := steiner.RankedCovers(ctx, c.g, c.terms, c.maxAux, c.limit)
		if err != nil {
			t.Fatalf("%s %v: %v", c.name, c.terms, err)
		}
		want := reference.RankedConnections(c.g, c.terms, c.maxAux, c.limit)
		if !sameSets(got, want) {
			t.Fatalf("%s terminals %v max_aux %d limit %d:\n got %v\nwant %v", c.name, c.terms, c.maxAux, c.limit, got, want)
		}
		p := intset.FromSlice(c.terms)
		for _, set := range want {
			aux := set.Diff(p)
			radius := aux.Len() - aux.Len()/2
			for _, v := range aux {
				if d := distanceTo(c.g, v, p); d > radius {
					t.Fatalf("%s %v: auxiliary node %d of %v lies %d from the terminals, over %d", c.name, c.terms, v, set, d, radius)
				}
			}
		}
	}
	first, _ := steiner.RankedCovers(ctx, hub, hubTerms, 2, 5)
	if want := intset.New(append([]int{z}, hubTerms...)...); len(first) == 0 || !first[0].Equal(want) {
		t.Fatalf("hub scheme: first interpretation %v, want %v", first, want)
	}
}

// sameSets reports whether a and b hold equal sets in the same order.
func sameSets(a, b []intset.Set) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// distanceTo returns the BFS distance from v to the nearest node of p.
func distanceTo(g *graph.Graph, v int, p intset.Set) int {
	dist := g.BFSDistances(v)
	best := -1
	for _, t := range p {
		if d := dist[t]; d >= 0 && (best < 0 || d < best) {
			best = d
		}
	}
	return best
}
