// Package gen provides the workload generators used by tests, experiments
// and benchmarks: seeded random graphs/hypergraphs, constructive families
// with a known acyclicity degree (with the argument for the degree given in
// the doc comment — these are the scalable benchmark inputs), rejection
// samplers for exact class targeting on small sizes, random chordal graphs
// for the CSPC reduction, and X3C instances with or without planted
// solutions.
//
// Every generator takes an explicit *rand.Rand so callers control seeds and
// determinism.
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/bipartite"
	"repro/internal/graph"
	"repro/internal/hypergraph"
)

// nodeLabel produces distinct labels n0, n1, … .
func nodeLabel(prefix string, i int) string {
	return fmt.Sprintf("%s%d", prefix, i)
}

// RandomGraph returns an Erdős–Rényi graph on n nodes with edge
// probability p.
func RandomGraph(r *rand.Rand, n int, p float64) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(nodeLabel("v", i))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// RandomBipartite returns a random bipartite graph with n1 + n2 nodes and
// arc probability p.
func RandomBipartite(r *rand.Rand, n1, n2 int, p float64) *bipartite.Graph {
	b := bipartite.New()
	var v1, v2 []int
	for i := 0; i < n1; i++ {
		v1 = append(v1, b.AddV1(nodeLabel("a", i)))
	}
	for i := 0; i < n2; i++ {
		v2 = append(v2, b.AddV2(nodeLabel("r", i)))
	}
	for _, u := range v1 {
		for _, w := range v2 {
			if r.Float64() < p {
				b.AddEdge(u, w)
			}
		}
	}
	return b
}

// RandomConnectedBipartite returns a random bipartite graph made connected
// by wiring every stray component to anchor nodes (the first node of each
// side). Requires n1, n2 ≥ 1.
func RandomConnectedBipartite(r *rand.Rand, n1, n2 int, p float64) *bipartite.Graph {
	if n1 < 1 || n2 < 1 {
		panic("gen: RandomConnectedBipartite needs at least one node per side")
	}
	b := RandomBipartite(r, n1, n2, p)
	a1 := b.V1()[0]
	a2 := b.V2()[0]
	b.AddEdge(a1, a2)
	for _, comp := range b.G().Components() {
		inComp := false
		for _, v := range comp {
			if v == a1 {
				inComp = true
				break
			}
		}
		if inComp {
			continue
		}
		x := comp[r.Intn(len(comp))]
		if b.Side(x) == graph.Side1 {
			b.AddEdge(x, a2)
		} else {
			b.AddEdge(x, a1)
		}
	}
	return b
}

// RandomHypergraph returns a hypergraph with n nodes and m random edges of
// size 1 … maxSize.
func RandomHypergraph(r *rand.Rand, n, m, maxSize int) *hypergraph.Hypergraph {
	h := hypergraph.New()
	for i := 0; i < n; i++ {
		h.AddNode(nodeLabel("n", i))
	}
	if maxSize > n {
		maxSize = n
	}
	for i := 0; i < m; i++ {
		sz := 1 + r.Intn(maxSize)
		perm := r.Perm(n)
		h.AddEdge(nodeLabel("e", i), perm[:sz]...)
	}
	return h
}

// AlphaAcyclic returns a random α-acyclic hypergraph with m edges built by
// growing a join tree: each new edge takes a random subset of a random
// earlier edge plus fresh nodes, so the running intersection property holds
// by construction.
func AlphaAcyclic(r *rand.Rand, m, maxShared, maxFresh int) *hypergraph.Hypergraph {
	h := hypergraph.New()
	next := 0
	fresh := func(k int) []int {
		out := make([]int, k)
		for i := range out {
			out[i] = h.AddNode(nodeLabel("n", next))
			next++
		}
		return out
	}
	var edges [][]int
	for i := 0; i < m; i++ {
		var nodes []int
		if i > 0 && maxShared > 0 {
			parent := edges[r.Intn(len(edges))]
			k := r.Intn(min(maxShared, len(parent)) + 1)
			perm := r.Perm(len(parent))
			for _, idx := range perm[:k] {
				nodes = append(nodes, parent[idx])
			}
		}
		nodes = append(nodes, fresh(1+r.Intn(maxFresh))...)
		h.AddEdge(nodeLabel("e", i), nodes...)
		edges = append(edges, nodes)
	}
	return h
}

// WithSubsetEdges adds k edges to h, each a random nonempty subset of a
// random existing edge. Subset edges are absorbed by GYO's containment
// rule, so α-acyclicity is preserved — but they create parallel connection
// routes, the workload feature that separates good from bad elimination
// orderings (experiment E-ABL1).
func WithSubsetEdges(r *rand.Rand, h *hypergraph.Hypergraph, k int) *hypergraph.Hypergraph {
	out := h.Clone()
	base := h.M()
	if base == 0 {
		return out
	}
	for i := 0; i < k; i++ {
		e := out.Edge(r.Intn(base))
		sz := 1 + r.Intn(len(e))
		perm := r.Perm(len(e))
		nodes := make([]int, sz)
		for j := 0; j < sz; j++ {
			nodes[j] = e[perm[j]]
		}
		out.AddEdge(nodeLabel("s", i), nodes...)
	}
	return out
}

// GammaAcyclic returns a random γ-acyclic hypergraph with m edges built as
// a hierarchy: edges form a tree; each child edge overlaps only its parent,
// the overlap avoids the parent's own overlap with the grandparent, and
// sibling overlaps are pairwise disjoint.
//
// Why γ-acyclic: only parent-child pairs intersect, so the
// edge-intersection structure is a forest — no β-cycle (a β-cycle needs a
// cyclic chain of ≥ 3 pairwise-intersecting edges). A special triangle
// needs all three pairwise intersections nonempty, i.e. a triangle in the
// intersection forest — impossible. (Berge 2-cycles do occur when overlaps
// have size ≥ 2, so the family genuinely separates Berge from γ.)
func GammaAcyclic(r *rand.Rand, m, maxOverlap, maxFresh int) *hypergraph.Hypergraph {
	h := hypergraph.New()
	next := 0
	fresh := func(k int) []int {
		out := make([]int, k)
		for i := range out {
			out[i] = h.AddNode(nodeLabel("n", next))
			next++
		}
		return out
	}
	// available[i] lists nodes of edge i a child may still overlap with.
	var available [][]int
	for i := 0; i < m; i++ {
		var nodes []int
		if i > 0 && maxOverlap > 0 {
			parent := r.Intn(i)
			avail := available[parent]
			if len(avail) > 0 {
				k := 1 + r.Intn(min(maxOverlap, len(avail)))
				nodes = append(nodes, avail[:k]...)
				available[parent] = avail[k:]
			}
		}
		own := fresh(1 + r.Intn(maxFresh))
		nodes = append(nodes, own...)
		h.AddEdge(nodeLabel("e", i), nodes...)
		// Children may overlap only with this edge's fresh nodes.
		available = append(available, own)
	}
	return h
}

// NestedChain returns the nested-edge hypergraph e_1 ⊆ e_2 ⊆ … ⊆ e_m with
// |e_i| = i·width. Nested families are γ-acyclic: every node is a nest
// point, and a special triangle needs n2 ∈ e2∩e3 ∖ e1 with e1 ⊆ e2 ⊆ e3,
// whose pairwise intersections collapse into the smallest edge.
func NestedChain(m, width int) *hypergraph.Hypergraph {
	h := hypergraph.New()
	var nodes []int
	for i := 1; i <= m; i++ {
		for len(nodes) < i*width {
			nodes = append(nodes, h.AddNode(nodeLabel("n", len(nodes))))
		}
		h.AddEdge(nodeLabel("e", i-1), nodes...)
	}
	return h
}

// BergeForest returns a Berge-acyclic hypergraph: edges arranged in a tree
// where each child shares exactly one node with its parent (the incidence
// graph is then a tree).
func BergeForest(r *rand.Rand, m, maxFresh int) *hypergraph.Hypergraph {
	h := hypergraph.New()
	next := 0
	fresh := func(k int) []int {
		out := make([]int, k)
		for i := range out {
			out[i] = h.AddNode(nodeLabel("n", next))
			next++
		}
		return out
	}
	var edges [][]int
	for i := 0; i < m; i++ {
		var nodes []int
		if i > 0 {
			parent := edges[r.Intn(len(edges))]
			nodes = append(nodes, parent[r.Intn(len(parent))])
		}
		nodes = append(nodes, fresh(1+r.Intn(maxFresh))...)
		h.AddEdge(nodeLabel("e", i), nodes...)
		edges = append(edges, nodes)
	}
	return h
}

// CompleteBipartite returns K_{a,b} as a bipartite graph. Complete
// bipartite graphs are (6,2)-chordal: any 6-cycle u1-w1-u2-w2-u3-w3 has
// all three "opposite" chords present.
func CompleteBipartite(a, b int) *bipartite.Graph {
	g := bipartite.New()
	var v1, v2 []int
	for i := 0; i < a; i++ {
		v1 = append(v1, g.AddV1(nodeLabel("a", i)))
	}
	for i := 0; i < b; i++ {
		v2 = append(v2, g.AddV2(nodeLabel("r", i)))
	}
	for _, u := range v1 {
		for _, w := range v2 {
			g.AddEdge(u, w)
		}
	}
	return g
}

// RandomTree returns a random bipartite tree on n nodes (alternating sides
// along every path, so each node attaches to a parent of the other side).
func RandomTree(r *rand.Rand, n int) *bipartite.Graph {
	b := bipartite.New()
	if n == 0 {
		return b
	}
	b.AddV1(nodeLabel("t", 0))
	for i := 1; i < n; i++ {
		parent := r.Intn(i)
		var id int
		if b.Side(parent) == graph.Side1 {
			id = b.AddV2(nodeLabel("t", i))
		} else {
			id = b.AddV1(nodeLabel("t", i))
		}
		b.AddEdge(parent, id)
	}
	return b
}

// GridBipartite returns the rows×cols grid graph (bipartite by chessboard
// colouring) — a cyclic control workload: grids of either side ≥ 2 have
// chordless 8-cycles... (every 4-cycle of the grid is chordless but short;
// 8-cycles around four faces are chordless), so they satisfy none of the
// chordality classes beyond bipartiteness.
func GridBipartite(rows, cols int) *bipartite.Graph {
	b := bipartite.New()
	ids := make([][]int, rows)
	for i := range ids {
		ids[i] = make([]int, cols)
		for j := range ids[i] {
			if (i+j)%2 == 0 {
				ids[i][j] = b.AddV1(fmt.Sprintf("g%d_%d", i, j))
			} else {
				ids[i][j] = b.AddV2(fmt.Sprintf("g%d_%d", i, j))
			}
		}
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if i+1 < rows {
				b.AddEdge(ids[i][j], ids[i+1][j])
			}
			if j+1 < cols {
				b.AddEdge(ids[i][j], ids[i][j+1])
			}
		}
	}
	return b
}

// DisjointUnion returns the disjoint union of the given schemes: their
// nodes in order, with part i's labels prefixed "i.", their sides and
// edges, and no edge between parts — so a scheme with one connected
// component per connected part.
func DisjointUnion(parts ...*bipartite.Graph) *bipartite.Graph {
	b := bipartite.New()
	for i, p := range parts {
		base := b.N()
		g := p.G()
		for v := 0; v < g.N(); v++ {
			label := fmt.Sprintf("%d.%s", i, g.Label(v))
			if p.Side(v) == graph.Side1 {
				b.AddV1(label)
			} else {
				b.AddV2(label)
			}
		}
		for _, e := range g.Edges() {
			b.AddEdge(base+e.U, base+e.V)
		}
	}
	return b
}

// RandomChordalGraph returns a random chordal graph on n nodes: each new
// node is attached to a random clique drawn from the closed neighbourhood
// of a random earlier node, so the insertion order reversed is a perfect
// elimination ordering.
func RandomChordalGraph(r *rand.Rand, n int, attach int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.AddNode(nodeLabel("v", i))
		if i == 0 {
			continue
		}
		u := r.Intn(i)
		// Build a clique candidate: u plus those of u's neighbours that are
		// pairwise adjacent (greedy filter keeps it a clique).
		clique := []int{u}
		for _, w := range g.Neighbors(u) {
			if len(clique) >= attach {
				break
			}
			ok := true
			for _, c := range clique {
				if c != u && !g.HasEdge(c, w) && c != w {
					ok = false
					break
				}
			}
			if ok && w != u {
				clique = append(clique, w)
			}
		}
		k := 1 + r.Intn(len(clique))
		perm := r.Perm(len(clique))
		for _, idx := range perm[:k] {
			g.AddEdge(i, clique[idx])
		}
	}
	return g
}

// RandomX3C returns the triples of a random X3C instance over 3q elements
// with k triples (pass them to steiner.X3CInstance). When planted is true a
// random partition of X into q triples is included, so the instance is
// guaranteed solvable.
func RandomX3C(r *rand.Rand, q, k int, planted bool) [][3]int {
	var triples [][3]int
	n := 3 * q
	if planted {
		perm := r.Perm(n)
		for i := 0; i < q; i++ {
			triples = append(triples, [3]int{perm[3*i], perm[3*i+1], perm[3*i+2]})
		}
	}
	for len(triples) < k {
		perm := r.Perm(n)
		triples = append(triples, [3]int{perm[0], perm[1], perm[2]})
	}
	// Shuffle so planted triples are not a prefix.
	r.Shuffle(len(triples), func(i, j int) {
		triples[i], triples[j] = triples[j], triples[i]
	})
	return triples
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
