package hypergraph

import (
	"fmt"

	"repro/internal/intset"
)

// Degree classifies a hypergraph by the strongest acyclicity condition it
// satisfies. The paper's Definition 6 classes are nested:
// Berge-acyclic ⇒ γ-acyclic ⇒ β-acyclic ⇒ α-acyclic (all containments
// proper; Fagin [6]).
type Degree int

// Acyclicity degrees, strongest first.
const (
	DegreeBerge Degree = iota
	DegreeGamma
	DegreeBeta
	DegreeAlpha
	DegreeCyclic
)

// String returns the conventional name of the degree.
func (d Degree) String() string {
	switch d {
	case DegreeBerge:
		return "Berge-acyclic"
	case DegreeGamma:
		return "gamma-acyclic"
	case DegreeBeta:
		return "beta-acyclic"
	case DegreeAlpha:
		return "alpha-acyclic"
	case DegreeCyclic:
		return "cyclic"
	}
	return fmt.Sprintf("Degree(%d)", int(d))
}

// Classify returns the strongest acyclicity degree h satisfies.
func (h *Hypergraph) Classify() Degree {
	if h.BergeAcyclic() {
		return DegreeBerge
	}
	beta := h.BetaAcyclic()
	switch {
	case beta && h.FindGammaTriangle() == nil:
		return DegreeGamma
	case beta:
		return DegreeBeta
	case h.AlphaAcyclic():
		return DegreeAlpha
	default:
		return DegreeCyclic
	}
}

// BergeAcyclic reports whether h has no Berge cycle (Definition 6). A Berge
// cycle of h is exactly a cycle of the bipartite incidence graph of h, so h
// is Berge-acyclic iff the incidence graph is a forest. The check is a
// DFS over the incidence structure; see FindBergeCycle.
func (h *Hypergraph) BergeAcyclic() bool {
	return h.FindBergeCycle() == nil
}

// BergeCycle is a Berge cycle witness: Edges[i] and Edges[i+1] share
// Nodes[i], and Edges[q-1], Edges[0] share Nodes[q-1]; all edges and all
// nodes are distinct, q ≥ 2.
type BergeCycle struct {
	Edges []int
	Nodes []int
}

// FindBergeCycle returns a Berge cycle of h, or nil if h is Berge-acyclic.
//
// The incidence graph of h has a vertex per node and per edge and connects
// e to each of its nodes; cycles of that graph alternate node/edge vertices
// and are exactly Berge cycles. The search is a DFS forest over the
// incidence structure; the first back edge closes a cycle.
func (h *Hypergraph) FindBergeCycle() *BergeCycle {
	n, m := h.N(), h.M()
	// Incidence adjacency: vertex v<n is node v; vertex n+i is edge i.
	edgesOf := make([][]int, n)
	for i, e := range h.edges {
		for _, v := range e {
			edgesOf[v] = append(edgesOf[v], i)
		}
	}
	parent := make([]int, n+m) // DFS tree parent in incidence graph
	state := make([]int, n+m)  // 0 unvisited, 1 on stack, 2 done
	for i := range parent {
		parent[i] = -1
	}
	var cycleAt []int // incidence vertices of found cycle
	var dfs func(u, from int) bool
	dfs = func(u, from int) bool {
		state[u] = 1
		parent[u] = from
		if u < n {
			for _, i := range edgesOf[u] {
				w := n + i
				if w == from {
					continue
				}
				if state[w] == 1 {
					cycleAt = []int{w, u}
					for x := from; x != w && x != -1; x = parent[x] {
						cycleAt = append(cycleAt, x)
					}
					return true
				}
				if state[w] == 0 && dfs(w, u) {
					return true
				}
			}
		} else {
			for _, v := range h.edges[u-n] {
				if v == from {
					continue
				}
				if state[v] == 1 {
					cycleAt = []int{v, u}
					for x := from; x != v && x != -1; x = parent[x] {
						cycleAt = append(cycleAt, x)
					}
					return true
				}
				if state[v] == 0 && dfs(v, u) {
					return true
				}
			}
		}
		state[u] = 2
		return false
	}
	for s := 0; s < n+m; s++ {
		if state[s] == 0 && dfs(s, -1) {
			break
		}
	}
	if cycleAt == nil {
		return nil
	}
	// cycleAt is [closing vertex, u, ..., back to just after closing
	// vertex] in reverse walk order; rotate so it starts at an edge vertex
	// and split into edge/node sequences.
	var bc BergeCycle
	// Find an edge-vertex starting position.
	start := 0
	for i, x := range cycleAt {
		if x >= n {
			start = i
			break
		}
	}
	k := len(cycleAt)
	for i := 0; i < k; i++ {
		x := cycleAt[(start+i)%k]
		if x >= n {
			bc.Edges = append(bc.Edges, x-n)
		} else {
			bc.Nodes = append(bc.Nodes, x)
		}
	}
	return &bc
}

// NestPoint reports whether node v is a nest point of the working edge
// family: the edges containing v are totally ordered by inclusion.
func nestPoint(edges []intset.Set, v int) bool {
	var containing []intset.Set
	for _, e := range edges {
		if e.Contains(v) {
			containing = append(containing, e)
		}
	}
	for i := 0; i < len(containing); i++ {
		for j := i + 1; j < len(containing); j++ {
			if !containing[i].SubsetOf(containing[j]) && !containing[j].SubsetOf(containing[i]) {
				return false
			}
		}
	}
	return true
}

// BetaAcyclic reports whether h is β-acyclic (no β-cycle, Definition 6).
//
// The recognizer eliminates nest points: a hypergraph is β-acyclic iff
// every nonempty subhypergraph has a nest point — a node whose incident
// edges form an inclusion chain — and greedily removing any nest point
// (then dropping emptied edges) is confluent. If elimination gets stuck
// with nodes remaining, h has a β-cycle. Cross-checked in tests against the
// definitional β-cycle search of internal/reference.
func (h *Hypergraph) BetaAcyclic() bool {
	core, _ := h.betaCore()
	return len(core) == 0
}

// betaCore runs nest-point elimination and returns the remaining active
// nodes and working edges when stuck (empty when β-acyclic).
func (h *Hypergraph) betaCore() ([]int, []intset.Set) {
	work := make([]intset.Set, 0, h.M())
	for _, e := range h.edges {
		work = append(work, e.Clone())
	}
	activeSet := map[int]bool{}
	for _, e := range work {
		for _, v := range e {
			activeSet[v] = true
		}
	}
	active := intset.FromMap(activeSet)
	for len(active) > 0 {
		eliminated := -1
		for _, v := range active {
			if nestPoint(work, v) {
				eliminated = v
				break
			}
		}
		if eliminated == -1 {
			return active, work
		}
		active = active.Remove(eliminated)
		next := work[:0]
		for _, e := range work {
			e = e.Remove(eliminated)
			if !e.Empty() {
				next = append(next, e)
			}
		}
		work = next
	}
	return nil, nil
}

// GammaAcyclic reports whether h is γ-acyclic (no γ-cycle, Definition 6).
//
// A γ-cycle is a β-cycle or a 3-edge cycle (e1, e2, e3) whose connecting
// nodes satisfy n1 ∉ e3 and n2 ∉ e1. Hence h is γ-acyclic iff it is
// β-acyclic and has no such "special triangle"; the triangle scan below is
// exact because the three witness nodes are automatically distinct:
// n1 ∈ e1∩e2∖e3 and n2 ∈ e2∩e3∖e1 and n3 ∈ e3∩e1 are pairwise separated by
// the excluded edges.
func (h *Hypergraph) GammaAcyclic() bool {
	return h.BetaAcyclic() && h.FindGammaTriangle() == nil
}

// GammaTriangle is a special-triangle witness for γ-cyclicity.
type GammaTriangle struct {
	E1, E2, E3 int // edge indices, (e1, e2, e3) as in Definition 6
	N1, N2, N3 int // n1 ∈ e1∩e2∖e3, n2 ∈ e2∩e3∖e1, n3 ∈ e3∩e1
}

// FindGammaTriangle returns a special triangle of h, or nil if none exists.
// The conditions are symmetric under swapping e1 and e3, so the scan fixes
// e1 < e3 and tries every middle edge e2.
func (h *Hypergraph) FindGammaTriangle() *GammaTriangle {
	m := h.M()
	for a := 0; a < m; a++ {
		for c := a + 1; c < m; c++ {
			ac := h.edges[a].Inter(h.edges[c])
			if ac.Empty() {
				continue
			}
			for b := 0; b < m; b++ {
				if b == a || b == c {
					continue
				}
				n1s := h.edges[a].Inter(h.edges[b]).Diff(h.edges[c])
				if n1s.Empty() {
					continue
				}
				n2s := h.edges[b].Inter(h.edges[c]).Diff(h.edges[a])
				if n2s.Empty() {
					continue
				}
				return &GammaTriangle{
					E1: a, E2: b, E3: c,
					N1: n1s[0], N2: n2s[0], N3: ac[0],
				}
			}
		}
	}
	return nil
}
