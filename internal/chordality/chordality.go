// Package chordality implements the paper's graph-side recognizers:
// chordal graphs (via maximum cardinality search and perfect-elimination
// verification), the three bipartite (m,n)-chordality classes of
// Definition 4 — (4,1), (6,2) and (6,1) — and the asymmetric V1/V2
// chordality and conformity classes of Definition 5.
//
// Every recognizer runs on the compiled CSR view (graph.Frozen,
// bipartite.Frozen), and the bipartite ones go through Theorem 1's
// correspondence with hypergraph acyclicity, which yields polynomial
// tests:
//
//	(4,1)-chordal ⟺ H¹G Berge-acyclic ⟺ G is a forest
//	(6,2)-chordal ⟺ H¹G γ-acyclic
//	(6,1)-chordal ⟺ H¹G β-acyclic
//	V1-chordal    ⟺ G(H¹G) chordal        (Fact (a) in Theorem 1's proof)
//	V1-conformal  ⟺ H¹G conformal         (Fact (b))
//	V1-chordal ∧ V1-conformal ⟺ H¹G α-acyclic
//
// Each verdict is checked against the literal Definition 4/5 checks of
// internal/reference in this package's tests.
package chordality

import (
	"repro/internal/bipartite"
	"repro/internal/graph"
)

// IsChordal reports whether f is chordal (every cycle of length ≥ 4 has a
// chord). The test runs maximum cardinality search and verifies that the
// reverse visit order is a perfect elimination ordering — it is iff f is
// chordal (Tarjan & Yannakakis, SIAM J. Comput. 1984).
func IsChordal(f *graph.Frozen) bool {
	_, ok := PerfectEliminationOrder(f)
	return ok
}

// MCSOrder returns a maximum cardinality search visit order: each step
// visits an unvisited node with the maximum number of visited neighbours
// (ties broken by lowest id, so the order is deterministic).
func MCSOrder(f *graph.Frozen) []int {
	n := f.N()
	weight := make([]int32, n)
	visited := make([]bool, n)
	order := make([]int, 0, n)
	for len(order) < n {
		best := -1
		for v := 0; v < n; v++ {
			if visited[v] {
				continue
			}
			if best == -1 || weight[v] > weight[best] {
				best = v
			}
		}
		visited[best] = true
		order = append(order, best)
		for _, w := range f.Neighbors(best) {
			if !visited[w] {
				weight[w]++
			}
		}
	}
	return order
}

// PerfectEliminationOrder returns the reverse MCS order of f and true if
// it is a perfect elimination ordering (each node's later neighbours form
// a clique), which holds iff f is chordal; otherwise nil and false.
func PerfectEliminationOrder(f *graph.Frozen) ([]int, bool) {
	mcs := MCSOrder(f)
	n := f.N()
	peo := make([]int, n)
	for i, v := range mcs {
		peo[n-1-i] = v
	}
	pos := make([]int32, n)
	for i, v := range peo {
		pos[v] = int32(i)
	}
	// For each v, let w be its earliest later neighbour; all other later
	// neighbours of v must be adjacent to w (Golumbic's verification). The
	// frozen bitset matrix answers those HasEdge probes in O(1).
	for _, v := range peo {
		w := -1
		for _, u := range f.Neighbors(v) {
			if pos[u] > pos[v] && (w == -1 || pos[u] < pos[w]) {
				w = int(u)
			}
		}
		if w == -1 {
			continue
		}
		for _, u := range f.Neighbors(v) {
			if pos[u] > pos[v] && int(u) != w && !f.HasEdge(w, int(u)) {
				return nil, false
			}
		}
	}
	return peo, true
}

// Class aggregates every recognizer verdict for a bipartite graph; it is
// the classification used by core.Connector to dispatch algorithms.
type Class struct {
	Chordal41   bool // G acyclic ⟺ H¹ Berge-acyclic
	Chordal62   bool // ⟺ H¹ γ-acyclic
	Chordal61   bool // ⟺ H¹ β-acyclic
	V1Chordal   bool
	V1Conformal bool
	V2Chordal   bool
	V2Conformal bool
}

// AlphaV1 reports whether H¹G is α-acyclic (V1-chordal ∧ V1-conformal,
// Theorem 1(v)) — the precondition of Algorithm 1 for pseudo-Steiner with
// respect to V2.
func (c Class) AlphaV1() bool { return c.V1Chordal && c.V1Conformal }

// AlphaV2 reports whether H²G is α-acyclic (Theorem 1(vi)).
func (c Class) AlphaV2() bool { return c.V2Chordal && c.V2Conformal }

// Classify freezes b and runs every recognizer on the frozen view.
func Classify(b *bipartite.Graph) Class { return ClassifyFrozen(b.Freeze()) }

// ClassifyFrozen runs every recognizer on the frozen scheme, building both
// Definition 2 hypergraphs straight from the CSR arrays.
func ClassifyFrozen(fb *bipartite.Frozen) Class {
	h1 := fb.HypergraphV1().H
	h2 := fb.HypergraphV2().H
	return Class{
		Chordal41:   fb.G().IsForest(),
		Chordal62:   h1.GammaAcyclic(),
		Chordal61:   h1.BetaAcyclic(),
		V1Chordal:   IsChordal(h1.PrimalGraph().Freeze()),
		V1Conformal: h1.Conformal(),
		V2Chordal:   IsChordal(h2.PrimalGraph().Freeze()),
		V2Conformal: h2.Conformal(),
	}
}
