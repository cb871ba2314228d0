package bipartite

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/intset"
)

// Graph is a bipartite graph G = (V1, V2, A). It wraps graph.Graph with a
// side assignment; edges may only join V1 to V2. Create with New.
type Graph struct {
	g    *graph.Graph
	side []graph.Side
}

// New returns an empty bipartite graph.
func New() *Graph {
	return &Graph{g: graph.New()}
}

// AddV1 adds a node to V1 and returns its id.
func (b *Graph) AddV1(label string) int {
	id := b.g.AddNode(label)
	b.side = append(b.side, graph.Side1)
	return id
}

// AddV2 adds a node to V2 and returns its id.
func (b *Graph) AddV2(label string) int {
	id := b.g.AddNode(label)
	b.side = append(b.side, graph.Side2)
	return id
}

// AddEdge adds the arc {u, v}. It panics if u and v are on the same side.
func (b *Graph) AddEdge(u, v int) {
	if b.side[u] == b.side[v] {
		panic(fmt.Sprintf("bipartite: edge %s-%s inside one side",
			b.g.Label(u), b.g.Label(v)))
	}
	b.g.AddEdge(u, v)
}

// AddEdgeLabels adds the arc between existing nodes named a and b.
func (b *Graph) AddEdgeLabels(a, c string) {
	b.AddEdge(b.g.MustID(a), b.g.MustID(c))
}

// G returns the underlying graph (shared, not a copy): use it for
// traversal, connectivity and Steiner primitives.
func (b *Graph) G() *graph.Graph { return b.g }

// N returns the number of nodes; M the number of arcs.
func (b *Graph) N() int { return b.g.N() }

// M returns the number of arcs.
func (b *Graph) M() int { return b.g.M() }

// Side returns which side node v is on.
func (b *Graph) Side(v int) graph.Side { return b.side[v] }

// Sides returns the side of every node, indexed by id. The slice is shared
// and must not be modified.
func (b *Graph) Sides() []graph.Side { return b.side }

// V1 returns the ids of the V1 nodes in increasing order.
func (b *Graph) V1() []int { return b.sideNodes(graph.Side1) }

// V2 returns the ids of the V2 nodes in increasing order.
func (b *Graph) V2() []int { return b.sideNodes(graph.Side2) }

func (b *Graph) sideNodes(s graph.Side) []int {
	var out []int
	for v, sv := range b.side {
		if sv == s {
			out = append(out, v)
		}
	}
	return out
}

// Swap returns the same graph with the two sides exchanged (V1 ↔ V2). The
// underlying graph is shared; only the side assignment is copied.
func (b *Graph) Swap() *Graph {
	side := make([]graph.Side, len(b.side))
	for v, s := range b.side {
		if s == graph.Side1 {
			side[v] = graph.Side2
		} else {
			side[v] = graph.Side1
		}
	}
	return &Graph{g: b.g, side: side}
}

// Clone returns an independent copy.
func (b *Graph) Clone() *Graph {
	return &Graph{g: b.g.Clone(), side: append([]graph.Side(nil), b.side...)}
}

// Induced returns the subgraph induced by keep (sides preserved) together
// with the old-to-new id mapping.
func (b *Graph) Induced(keep []int) (*Graph, map[int]int) {
	sub, old2new := b.g.Induced(keep)
	side := make([]graph.Side, sub.N())
	for old, nw := range old2new {
		side[nw] = b.side[old]
	}
	return &Graph{g: sub, side: side}, old2new
}

// FromGraph wraps an existing graph with an explicit side assignment,
// validating that every edge crosses sides.
func FromGraph(g *graph.Graph, side []graph.Side) (*Graph, error) {
	if len(side) != g.N() {
		return nil, fmt.Errorf("bipartite: side assignment has %d entries for %d nodes", len(side), g.N())
	}
	for _, e := range g.Edges() {
		if side[e.U] == side[e.V] {
			return nil, fmt.Errorf("bipartite: edge %s-%s inside one side",
				g.Label(e.U), g.Label(e.V))
		}
	}
	return &Graph{g: g, side: append([]graph.Side(nil), side...)}, nil
}

// Detect 2-colours an arbitrary graph into a bipartite.Graph. The colouring
// puts the smallest node of each component on side 1, so the result is
// deterministic but one of the two symmetric assignments per component.
func Detect(g *graph.Graph) (*Graph, error) {
	side, ok := g.Bipartition()
	if !ok {
		return nil, fmt.Errorf("bipartite: graph contains an odd cycle")
	}
	return &Graph{g: g, side: side}, nil
}

// Correspondence links a bipartite graph with one of its Definition 2
// hypergraphs: EdgeToV2[i] is the V2 node whose neighbourhood became
// hypergraph edge i, and NodeToV1 maps hypergraph node ids back to graph
// node ids (the identity mapping is not guaranteed because hypergraph
// nodes are allocated in V1 order).
type Correspondence struct {
	H        *hypergraph.Hypergraph
	EdgeToV2 []int
	NodeToV1 []int
	V1ToNode map[int]int
}

// HypergraphV1 builds H¹G (Definition 2): nodes correspond to V1, and for
// every V2 node with at least one neighbour there is an edge holding its
// V1-neighbourhood. V2 nodes of degree zero contribute no edge (edges must
// be nonempty, Definition 1) — the correspondence is exact on graphs
// without isolated V2 nodes. It is Frozen.HypergraphV1 on a fresh Freeze.
func (b *Graph) HypergraphV1() Correspondence { return b.Freeze().HypergraphV1() }

// HypergraphV2 builds H²G symmetrically: nodes correspond to V2, edges to
// V1 neighbourhoods.
func (b *Graph) HypergraphV2() Correspondence { return b.Freeze().HypergraphV2() }

// Incidence links a hypergraph with its incidence bipartite graph.
type Incidence struct {
	B      *Graph
	NodeID []int // hypergraph node -> graph V1 node
	EdgeID []int // hypergraph edge -> graph V2 node
}

// FromHypergraph builds the bipartite incidence graph of h: V1 has one node
// per hypergraph node, V2 one node per hypergraph edge, with an arc for
// each membership. This inverts HypergraphV1: for a graph G with no
// isolated V2 nodes, FromHypergraph(H¹G) is isomorphic to G.
func FromHypergraph(h *hypergraph.Hypergraph) Incidence {
	b := New()
	nodeID := make([]int, h.N())
	for v := 0; v < h.N(); v++ {
		nodeID[v] = b.AddV1(h.NodeLabel(v))
	}
	edgeID := make([]int, h.M())
	seen := map[string]bool{}
	for v := 0; v < h.N(); v++ {
		seen[h.NodeLabel(v)] = true
	}
	for i := 0; i < h.M(); i++ {
		name := h.EdgeName(i)
		if name == "" {
			name = fmt.Sprintf("e%d", i)
		}
		for seen[name] {
			name = fmt.Sprintf("%s#%d", name, i)
		}
		seen[name] = true
		edgeID[i] = b.AddV2(name)
		for _, v := range h.Edge(i) {
			b.AddEdge(nodeID[v], edgeID[i])
		}
	}
	return Incidence{B: b, NodeID: nodeID, EdgeID: edgeID}
}

// Neighborhood returns the V1-neighbourhood of a V2 node (or vice versa) as
// a set.
func (b *Graph) Neighborhood(v int) intset.Set {
	return b.g.Neighbors(v)
}
