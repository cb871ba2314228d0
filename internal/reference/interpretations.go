package reference

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/intset"
)

// RankedConnections returns the node sets of the connection trees over
// the terminals with at most maxAux auxiliary (non-terminal) nodes,
// sorted by size and then by Key, at most limit of them — the ranking
// steiner.RankedCovers must reproduce. A connection tree is a tree of g
// containing every terminal whose leaves are all terminals. It tries
// every auxiliary subset of at most maxAux nodes, with no cap and no
// pruning: exponential, small graphs and budgets only.
func RankedConnections(g *graph.Graph, terminals []int, maxAux, limit int) []intset.Set {
	p := intset.FromSlice(terminals)
	var others []int
	for v := 0; v < g.N(); v++ {
		if !p.Contains(v) {
			others = append(others, v)
		}
	}
	var out []intset.Set
	var aux []int
	var try func(start int)
	try = func(start int) {
		sel := p.Union(intset.FromSlice(aux))
		if isConnectionTree(g, sel, p) {
			out = append(out, sel)
		}
		if len(aux) == maxAux {
			return
		}
		for i := start; i < len(others); i++ {
			aux = append(aux, others[i])
			try(i + 1)
			aux = aux[:len(aux)-1]
		}
	}
	if maxAux >= 0 {
		try(0)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Len() != out[j].Len() {
			return out[i].Len() < out[j].Len()
		}
		return out[i].Key() < out[j].Key()
	})
	if limit < 0 {
		limit = 0
	}
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// isConnectionTree reports whether some spanning tree of the subgraph
// induced by sel has every leaf (a node of degree at most 1) in p. It
// tries every (|sel|−1)-edge subset of the induced edges: such a subset
// is a spanning tree exactly when it connects sel.
func isConnectionTree(g *graph.Graph, sel, p intset.Set) bool {
	n := sel.Len()
	if n == 0 {
		return false
	}
	var edges [][2]int
	for i, u := range sel {
		for _, v := range sel[i+1:] {
			if g.HasEdge(u, v) {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	var chosen [][2]int
	var pick func(next int) bool
	pick = func(next int) bool {
		if len(chosen) == n-1 {
			return spansWithTerminalLeaves(sel, p, chosen)
		}
		if next == len(edges) {
			return false
		}
		chosen = append(chosen, edges[next])
		if pick(next + 1) {
			return true
		}
		chosen = chosen[:len(chosen)-1]
		return pick(next + 1)
	}
	return pick(0)
}

// spansWithTerminalLeaves reports whether the n−1 edges connect all of
// sel (so they form a spanning tree) and every node they leave with
// degree at most 1 is in p.
func spansWithTerminalLeaves(sel, p intset.Set, edges [][2]int) bool {
	adj := make(map[int][]int, sel.Len())
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	for _, v := range sel {
		if len(adj[v]) <= 1 && !p.Contains(v) {
			return false
		}
	}
	seen := map[int]bool{sel[0]: true}
	stack := []int{sel[0]}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return len(seen) == sel.Len()
}
