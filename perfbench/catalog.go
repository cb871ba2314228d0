package main

import (
	"fmt"
	"math/rand"

	"repro/internal/bipartite"
	"repro/internal/chordality"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/steiner"
)

// scheme is one catalog entry: the generated graph the server compiles,
// plus an independent Connector compiled from the same graph that the
// benchmark uses as its answer oracle.
type scheme struct {
	name   string
	graph  *bipartite.Graph
	oracle *core.Connector
}

// size returns the scheme's node count.
func (s *scheme) size() int { return s.graph.N() }

// method predicts the solver core dispatches a k-terminal query to, by the
// documented rule: (6,2)-chordal → Algorithm 2, α-acyclic H¹ → Algorithm 1,
// otherwise exact up to the exact limit and the heuristic beyond it.
func (s *scheme) method(k int) core.Method {
	cl := s.oracle.Class()
	switch {
	case cl.Chordal62:
		return core.MethodAlgorithm2
	case cl.AlphaV1():
		return core.MethodAlgorithm1
	case k <= min(s.oracle.ExactLimit(), steiner.ExactTerminalLimit):
		return core.MethodExact
	}
	return core.MethodHeuristic
}

// catalog is the scheme set every workload shares: one connected scheme
// per dispatch band of the paper's taxonomy.
type catalog struct {
	schemes []*scheme
}

// Scheme names, in catalog order.
const (
	schemeTree   = "tree"   // random bipartite tree: Algorithm 2 + certification
	schemeDense  = "dense"  // complete bipartite: Algorithm 2, cheap solves
	schemeAlpha  = "alpha"  // α-acyclic, not (6,2)-chordal: Algorithm 1
	schemeSparse = "sparse" // sparse random cyclic: exact / heuristic
	schemeGrid   = "grid"   // grid: exact / heuristic
)

// catalogSize scales the catalog: the full size for measurement, a small
// one for the self-test. Every scheme needs enough distinct terminal sets
// of each size for the never-repeated queries a run sends (see fresh);
// with 64 nodes the densest band, 2-terminal sets, has 2016.
type catalogSize struct {
	treeNodes          int
	denseA, denseB     int
	alphaEdges         int
	alphaMinNodes      int
	sparseV1, sparseV2 int
	sparseP            float64
	gridRows, gridCols int
}

var (
	fullCatalog = catalogSize{treeNodes: 200, denseA: 16, denseB: 48, alphaEdges: 96, alphaMinNodes: 64,
		sparseV1: 40, sparseV2: 30, sparseP: 0.08, gridRows: 8, gridCols: 8}
	smallCatalog = catalogSize{treeNodes: 40, denseA: 6, denseB: 8, alphaEdges: 24, alphaMinNodes: 20,
		sparseV1: 14, sparseV2: 10, sparseP: 0.2, gridRows: 4, gridCols: 5}
)

// newCatalog generates the catalog from seed. Every scheme is connected
// and lands in its intended band; generators are re-drawn (from the same
// seeded stream) until it does, so a seed always yields the same catalog.
func newCatalog(seed int64, sz catalogSize) (*catalog, error) {
	r := rand.New(rand.NewSource(seed))
	var out catalog
	add := func(name string, b *bipartite.Graph) {
		out.schemes = append(out.schemes, &scheme{name: name, graph: b, oracle: core.New(b)})
	}
	add(schemeTree, gen.RandomTree(r, sz.treeNodes))
	add(schemeDense, gen.CompleteBipartite(sz.denseA, sz.denseB))

	alpha, err := draw(schemeAlpha, func() *bipartite.Graph {
		return largestComponent(bipartite.FromHypergraph(gen.AlphaAcyclic(r, sz.alphaEdges, 3, 2)).B)
	}, func(b *bipartite.Graph, cl chordality.Class) bool {
		return cl.AlphaV1() && !cl.Chordal62 && b.N() >= sz.alphaMinNodes
	})
	if err != nil {
		return nil, err
	}
	add(schemeAlpha, alpha)

	cyclic := func(_ *bipartite.Graph, cl chordality.Class) bool { return !cl.AlphaV1() && !cl.Chordal62 }
	sparse, err := draw(schemeSparse, func() *bipartite.Graph {
		return gen.RandomConnectedBipartite(r, sz.sparseV1, sz.sparseV2, sz.sparseP)
	}, cyclic)
	if err != nil {
		return nil, err
	}
	add(schemeSparse, sparse)
	grid := gen.GridBipartite(sz.gridRows, sz.gridCols)
	if !cyclic(grid, chordality.ClassifyFrozen(grid.Freeze())) {
		return nil, fmt.Errorf("catalog: %dx%d grid is not in the cyclic band", sz.gridRows, sz.gridCols)
	}
	add(schemeGrid, grid)
	return &out, nil
}

// draw re-runs next until the scheme and its class satisfy want.
func draw(name string, next func() *bipartite.Graph, want func(*bipartite.Graph, chordality.Class) bool) (*bipartite.Graph, error) {
	for attempt := 0; attempt < 64; attempt++ {
		b := next()
		if want(b, chordality.ClassifyFrozen(b.Freeze())) {
			return b, nil
		}
	}
	return nil, fmt.Errorf("catalog: no %s scheme in its band after 64 draws", name)
}

// largestComponent returns the induced subgraph on b's largest connected
// component, so every query over it is connected.
func largestComponent(b *bipartite.Graph) *bipartite.Graph {
	comps := b.G().Components()
	best := comps[0]
	for _, c := range comps[1:] {
		if len(c) > len(best) {
			best = c
		}
	}
	sub, _ := b.Induced(best)
	return sub
}
