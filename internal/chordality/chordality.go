// Package chordality implements the paper's graph-side recognizers:
// chordal graphs (maximum cardinality search plus a perfect-elimination
// check), the three bipartite (m,n)-chordality classes of Definition 4 —
// (4,1), (6,2) and (6,1) — and the asymmetric V1/V2 chordality and
// conformity classes of Definition 5.
//
// ClassifyFrozen decides each class with its own kernel, straight off the
// compiled CSR arrays; it builds no hypergraph. Theorem 1 ties the
// classes to the acyclicity of H¹ (nodes V1, one edge per V2 vertex: its
// neighbourhood) and H² (sides swapped):
//
//	(4,1)-chordal ⟺ H¹ Berge-acyclic ⟺ G is a forest
//	(6,2)-chordal ⟺ H¹ γ-acyclic
//	(6,1)-chordal ⟺ H¹ β-acyclic
//	V1-chordal    ⟺ G(H¹) chordal        (Fact (a) in Theorem 1's proof)
//	V1-conformal  ⟺ H¹ conformal         (Fact (b))
//	V1-chordal ∧ V1-conformal ⟺ H¹ α-acyclic
//
// and likewise for V2 and H². The kernels, and why each is exact:
//
// (4,1): G is a forest iff m = n − #components.
//
// (6,2): pruning. Delete, over and over, a vertex of degree ≤ 1 or one of
// two false twins (equal neighbourhoods); G is (6,2)-chordal iff every
// vertex goes. The bipartite distance-hereditary graphs are exactly the
// (6,2)-chordal ones (Bandelt & Mulder, JCTB 1986; D'Atri & Moscarini,
// SIAM J. Comput. 1988). Distance-hereditary graphs are those with no
// induced house, gem, domino or hole of length ≥ 5. A bipartite graph has
// no house, gem or odd hole, so it is distance-hereditary iff it has no
// induced domino (a 6-cycle with one chord) and no hole of length ≥ 6.
// That is (6,2)-chordality: a cycle of length ≥ 6 with no chord is such a
// hole, and one with a single chord splits at the chord into two
// chordless even cycles, a hole of length ≥ 6 unless both are 4-cycles,
// which makes the cycle a domino. Bandelt & Mulder also show that a
// distance-hereditary graph on two or more vertices has a pendant vertex
// or twins. Induced subgraphs of distance-hereditary graphs are
// distance-hereditary, so pruning one never gets stuck; and adding an
// isolated vertex, a pendant vertex or a twin keeps a graph
// distance-hereditary, so a graph that prunes away is one. In a bipartite
// graph adjacent twins have N[u] = N[v] = {u, v}, degree 1, so false
// twins are the only twins to look for.
//
// (6,1): nest points. A nest point of H¹ is a node whose edges form an
// inclusion chain; H¹ is β-acyclic iff deleting nest points, over and
// over, deletes every node (Duris, Inf. Process. Lett. 2012). A node's
// status can change only through its own edges: deleting a node x keeps
// every inclusion (e ⊆ f gives e∖{x} ⊆ f∖{x}), so a nest point stays one,
// and an edge through a live node v never empties. So a node that is not
// a nest point can become one only after a node sharing one of its edges
// is deleted, and the worklist retests it then and only then.
//
// Vi-chordal: the primal graph of Hⁱ over its distinct edges is built as
// CSR, and one bucket-queue maximum cardinality search plus Golumbic's
// follower check decide its chordality in time linear in its size
// (Tarjan & Yannakakis, SIAM J. Comput. 1984). IsChordal runs the same
// search on a graph.Frozen.
//
// Vi-conformal: Gilmore's criterion (Berge, "Graphs and Hypergraphs"): H
// is conformal iff for any three edges e1, e2, e3 some edge holds
// (e1∩e2) ∪ (e2∩e3) ∪ (e3∩e1). Only triples of distinct, pairwise
// intersecting edges need a look: if e1∩e3 = ∅ the union lies in e2, and
// if e1 = e2 it is e1. The candidate covers are the edges through one
// node of the union, since a cover holds every node of it.
//
// Repeated edges: V2 vertices with equal neighbourhoods give H¹ the same
// edge more than once. The Vi kernels keep one copy of each: the primal
// graph depends only on which sets are edges, a triple with a repeated
// set is covered by the remark above, and a copy covers what its
// original covers. The (6,2) and (6,1) kernels need no such step: copies
// are false twins, pruned like any others, and a chain may hold equal
// edges.
//
// Each verdict is checked against the hypergraph recognizers of
// internal/hypergraph and the literal Definition 4/5 checks of
// internal/reference in this package's tests.
package chordality

import (
	"repro/internal/bipartite"
	"repro/internal/hypergraph"
)

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

// Degrees returns the strongest acyclicity degrees of H¹G and H²G that
// the class implies: Theorem 1(i)–(iv) give Berge, γ and β, the same on
// both sides, and (v) and (vi) give α side by side.
func (c Class) Degrees() (h1, h2 hypergraph.Degree) {
	return c.degree(c.AlphaV1()), c.degree(c.AlphaV2())
}

func (c Class) degree(alpha bool) hypergraph.Degree {
	switch {
	case c.Chordal41:
		return hypergraph.DegreeBerge
	case c.Chordal62:
		return hypergraph.DegreeGamma
	case c.Chordal61:
		return hypergraph.DegreeBeta
	case alpha:
		return hypergraph.DegreeAlpha
	}
	return hypergraph.DegreeCyclic
}

// Classify freezes b and runs every recognizer on the frozen view.
func Classify(b *bipartite.Graph) Class { return ClassifyFrozen(b.Freeze()) }

// ClassifyFrozen decides every verdict on the frozen scheme's CSR arrays,
// one kernel each (see the package comment).
func ClassifyFrozen(fb *bipartite.Frozen) Class {
	off, adj := fb.G().CSR()
	c := Class{
		Chordal41: fb.G().IsForest(),
		Chordal62: prunesAway(off, adj),
		Chordal61: nestPointsAway(off, adj, fb.Sides()),
	}
	c.V1Chordal, c.V1Conformal = sideVerdicts(off, adj, fb.V1(), fb.V2())
	c.V2Chordal, c.V2Conformal = sideVerdicts(off, adj, fb.V2(), fb.V1())
	return c
}
