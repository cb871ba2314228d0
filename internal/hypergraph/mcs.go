package hypergraph

import "repro/internal/intset"

// GreedyEdgeOrder orders the edges by maximum cardinality search lifted to
// edges: repeatedly append an edge intersecting the union of the already
// ordered edges in the most nodes (ties by lowest index; a disconnected
// remainder restarts at the lowest-index unused edge).
//
// This is the edge-selection discipline behind Tarjan & Yannakakis'
// restricted maximum cardinality search, which Theorem 4 of the paper uses
// to build Lemma 1's ordering in linear time: on an α-acyclic hypergraph
// the greedy order satisfies the running intersection property, so its
// reverse is a valid Algorithm 1 elimination ordering. (On cyclic inputs
// the order exists but RIP fails somewhere — use VerifyRunningIntersection
// to detect it; that check is exactly T&Y's acyclicity test and is
// cross-validated against GYO in the package tests.)
func (h *Hypergraph) GreedyEdgeOrder() []int {
	m := h.M()
	order := make([]int, 0, m)
	used := make([]bool, m)
	var union intset.Set
	for len(order) < m {
		best, bestW := -1, -1
		for e := 0; e < m; e++ {
			if used[e] {
				continue
			}
			w := h.edges[e].InterLen(union)
			if w > bestW {
				best, bestW = e, w
			}
		}
		used[best] = true
		order = append(order, best)
		union = union.Union(h.edges[best])
	}
	return order
}
