package graph

import "repro/internal/intset"

// BFSDistances returns the unweighted distance from start to every node,
// with -1 for unreachable nodes.
func (g *Graph) BFSDistances(start int) []int {
	return g.BFSDistancesAlive(start, nil)
}

// BFSDistancesAlive is BFSDistances restricted to nodes v with alive[v]
// (alive == nil means all nodes are alive). start must be alive.
func (g *Graph) BFSDistancesAlive(start int, alive []bool) []int {
	g.check(start)
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	if alive != nil && !alive[start] {
		return dist
	}
	dist[start] = 0
	queue := []int{start}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[v] {
			if alive != nil && !alive[w] {
				continue
			}
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Components returns the connected components as sorted id slices, ordered
// by smallest member.
func (g *Graph) Components() [][]int {
	return g.ComponentsAlive(nil)
}

// ComponentsAlive returns the connected components of the subgraph induced
// by the alive nodes (alive == nil means all).
func (g *Graph) ComponentsAlive(alive []bool) [][]int {
	seen := make([]bool, g.N())
	var comps [][]int
	for s := 0; s < g.N(); s++ {
		if seen[s] || (alive != nil && !alive[s]) {
			continue
		}
		var comp []int
		queue := []int{s}
		seen[s] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			comp = append(comp, v)
			for _, w := range g.adj[v] {
				if seen[w] || (alive != nil && !alive[w]) {
					continue
				}
				seen[w] = true
				queue = append(queue, w)
			}
		}
		comps = append(comps, intset.FromSlice(comp))
	}
	return comps
}

// IsConnected reports whether g is connected. The empty graph counts as
// connected.
func (g *Graph) IsConnected() bool {
	return len(g.Components()) <= 1
}

// Covers reports whether the subgraph induced by the alive nodes is a cover
// of the terminal set P per Definition 10: connected and containing every
// terminal. alive == nil means the whole graph.
func (g *Graph) Covers(alive []bool, terminals []int) bool {
	if len(terminals) == 0 {
		return true
	}
	for _, p := range terminals {
		g.check(p)
		if alive != nil && !alive[p] {
			return false
		}
	}
	dist := g.BFSDistancesAlive(terminals[0], alive)
	for _, p := range terminals {
		if dist[p] == -1 {
			return false
		}
	}
	// Connectivity of the whole alive subgraph, not just the terminals,
	// is required by Definition 10.
	n := 0
	for v := 0; v < g.N(); v++ {
		if alive == nil || alive[v] {
			n++
			if dist[v] == -1 {
				return false
			}
		}
	}
	return n > 0
}

// TerminalsConnected reports whether every terminal is alive and all
// terminals lie in one connected component of the alive subgraph. Unlike
// Covers it ignores other alive components — the cover test the
// elimination algorithms of Section 3 need (a removal may strand a pendant
// fragment, which later steps of the pass clean up).
func (g *Graph) TerminalsConnected(alive []bool, terminals []int) bool {
	if len(terminals) == 0 {
		return true
	}
	for _, p := range terminals {
		g.check(p)
		if alive != nil && !alive[p] {
			return false
		}
	}
	dist := g.BFSDistancesAlive(terminals[0], alive)
	for _, p := range terminals {
		if dist[p] == -1 {
			return false
		}
	}
	return true
}

// ComponentContaining returns the node set of the connected component
// containing any node of seeds, or nil if seeds span several components.
func (g *Graph) ComponentContaining(seeds []int) []int {
	if len(seeds) == 0 {
		return nil
	}
	dist := g.BFSDistances(seeds[0])
	for _, s := range seeds {
		if dist[s] == -1 {
			return nil
		}
	}
	var comp []int
	for v := range dist {
		if dist[v] >= 0 {
			comp = append(comp, v)
		}
	}
	return comp
}

// IsForest reports whether g has no cycles.
func (g *Graph) IsForest() bool {
	// A graph is a forest iff m = n − (number of components).
	return g.M() == g.N()-len(g.Components())
}
