package hypergraph

import "repro/internal/intset"

// GYOResult reports the outcome of a Graham/Yu–Özsoyoğlu reduction.
type GYOResult struct {
	// Acyclic is true iff the reduction eliminated every edge, i.e. the
	// hypergraph is α-acyclic.
	Acyclic bool
	// Core holds the indices of edges (in the original hypergraph) that
	// survive reduction when the hypergraph is α-cyclic; nil otherwise.
	Core []int
	// EliminationOrder lists edge indices in the order GYO removed them.
	// Only meaningful when Acyclic.
	EliminationOrder []int
}

// GYO runs the GYO (ear removal) reduction:
//
//	repeat until no change:
//	  1. delete any node that occurs in exactly one edge;
//	  2. delete any edge that is empty or contained in another edge.
//
// h is α-acyclic iff the reduction deletes every edge.
func (h *Hypergraph) GYO() GYOResult {
	m := h.M()
	work := make([]intset.Set, m)
	for i, e := range h.edges {
		work[i] = e.Clone()
	}
	alive := make([]bool, m)
	for i := range alive {
		alive[i] = true
	}
	occ := make([]int, h.N())
	for _, e := range work {
		for _, v := range e {
			occ[v]++
		}
	}
	var order []int
	remaining := m
	for changed := true; changed; {
		changed = false
		// Rule 1: remove nodes occurring in exactly one live edge.
		for i := 0; i < m; i++ {
			if !alive[i] {
				continue
			}
			var kept intset.Set
			for _, v := range work[i] {
				if occ[v] == 1 {
					occ[v] = 0
					changed = true
				} else {
					kept = append(kept, v)
				}
			}
			work[i] = kept
		}
		// Rule 2: remove empty edges and edges contained in another live
		// edge. Equal working sets are broken by index so exactly one of a
		// duplicate pair survives.
		for i := 0; i < m; i++ {
			if !alive[i] {
				continue
			}
			if work[i].Empty() {
				alive[i] = false
				remaining--
				order = append(order, i)
				changed = true
				continue
			}
			for j := 0; j < m; j++ {
				if j == i || !alive[j] {
					continue
				}
				if work[i].SubsetOf(work[j]) && !(work[j].SubsetOf(work[i]) && j > i) {
					alive[i] = false
					remaining--
					order = append(order, i)
					for _, v := range work[i] {
						occ[v]--
					}
					changed = true
					break
				}
			}
		}
	}
	if remaining > 0 {
		var core []int
		for i := 0; i < m; i++ {
			if alive[i] {
				core = append(core, i)
			}
		}
		return GYOResult{Acyclic: false, Core: core}
	}
	return GYOResult{Acyclic: true, EliminationOrder: order}
}

// AlphaAcyclic reports whether h is α-acyclic (Definition 7). The fast test
// is GYO reduction; the equivalence with Definition 7's "G(H) chordal and H
// conformal" is due to Beeri, Fagin, Maier and Yannakakis and is
// cross-checked in tests.
func (h *Hypergraph) AlphaAcyclic() bool {
	return h.GYO().Acyclic
}

// JoinTree returns, for an α-acyclic h, the parent of every edge in a join
// tree (-1 for roots, one root per connected component) and true; or nil
// and false when h is α-cyclic.
//
// The tree is a maximum-weight spanning forest of the edge-intersection
// graph (weight(i,j) = |e_i ∩ e_j|); by Maier's theorem every such forest
// of an α-acyclic hypergraph is a join tree (for each node, the edges
// containing it induce a subtree).
func (h *Hypergraph) JoinTree() ([]int, bool) {
	if !h.GYO().Acyclic {
		return nil, false
	}
	m := h.M()
	parent := make([]int, m)
	inTree := make([]bool, m)
	best := make([]int, m)   // best intersection weight to the tree so far
	bestTo := make([]int, m) // tree edge realizing it
	for i := range parent {
		parent[i] = -1
		best[i] = -1
		bestTo[i] = -1
	}
	// Prim's algorithm, restarted per component; deterministic tie-breaks
	// by lowest index.
	for picked := 0; picked < m; picked++ {
		sel := -1
		for i := 0; i < m; i++ {
			if inTree[i] {
				continue
			}
			if sel == -1 || best[i] > best[sel] {
				sel = i
			}
		}
		inTree[sel] = true
		if best[sel] > 0 {
			parent[sel] = bestTo[sel]
		}
		for i := 0; i < m; i++ {
			if inTree[i] {
				continue
			}
			if w := h.edges[sel].InterLen(h.edges[i]); w > best[i] {
				best[i] = w
				bestTo[i] = sel
			}
		}
	}
	return parent, true
}

// VerifyJoinTree checks the join-tree property of a parent array: for every
// node of h, the set of edges containing it must induce a connected subtree.
// It returns true when the property holds.
func (h *Hypergraph) VerifyJoinTree(parent []int) bool {
	if len(parent) != h.M() {
		return false
	}
	for v := 0; v < h.N(); v++ {
		members := h.EdgesOf(v)
		if len(members) <= 1 {
			continue
		}
		in := map[int]bool{}
		for _, e := range members {
			in[e] = true
		}
		// Walk up from each member; count members whose parent-chain hits
		// another member immediately (tree-connected components of the
		// member set). The set is a subtree iff exactly one member has no
		// member parent.
		roots := 0
		for _, e := range members {
			if parent[e] == -1 || !in[parent[e]] {
				roots++
			}
		}
		if roots != 1 {
			return false
		}
	}
	return true
}

// VerifyRunningIntersection checks the running intersection property of an
// edge ordering, returning the position of the first violation or -1.
func (h *Hypergraph) VerifyRunningIntersection(order []int) int {
	var prefix intset.Set
	for i, ei := range order {
		if i > 0 {
			inter := h.edges[ei].Inter(prefix)
			if !inter.Empty() {
				ok := false
				for j := 0; j < i; j++ {
					if inter.SubsetOf(h.edges[order[j]]) {
						ok = true
						break
					}
				}
				if !ok {
					return i
				}
			}
		}
		prefix = prefix.Union(h.edges[ei])
	}
	return -1
}
