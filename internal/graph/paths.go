package graph

// Distance returns the unweighted distance between u and v, or -1 if
// disconnected.
func (g *Graph) Distance(u, v int) int {
	return g.BFSDistances(u)[v]
}

// IsPath reports whether nodes forms a path in g: all distinct, consecutive
// nodes adjacent.
func (g *Graph) IsPath(nodes []int) bool {
	if len(nodes) == 0 {
		return false
	}
	seen := make(map[int]bool, len(nodes))
	for i, v := range nodes {
		g.check(v)
		if seen[v] {
			return false
		}
		seen[v] = true
		if i > 0 && !g.HasEdge(nodes[i-1], v) {
			return false
		}
	}
	return true
}

// IsCycle reports whether nodes forms a cycle per Definition 4: a path of
// length ≥ 3 whose endpoints are adjacent (so at least 4 distinct nodes...
// precisely, the node sequence has n ≥ 4 nodes? Definition 4 says a cycle is
// a path of length 3 or more such that the last node is adjacent to the
// first; the node count n is the length of the cycle). Here nodes lists the
// cycle's distinct nodes in order.
func (g *Graph) IsCycle(nodes []int) bool {
	if len(nodes) < 3 {
		return false
	}
	if !g.IsPath(nodes) {
		return false
	}
	return g.HasEdge(nodes[len(nodes)-1], nodes[0])
}

// CycleChords returns the chords of the given cycle: edges of g joining
// nonconsecutive nodes of the cycle.
func (g *Graph) CycleChords(cycle []int) []Edge {
	n := len(cycle)
	var chords []Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if j == i+1 || (i == 0 && j == n-1) {
				continue // consecutive on the cycle
			}
			if g.HasEdge(cycle[i], cycle[j]) {
				u, v := cycle[i], cycle[j]
				if u > v {
					u, v = v, u
				}
				chords = append(chords, Edge{u, v})
			}
		}
	}
	return chords
}

// CycleDistance returns the distance between positions i and j along the
// cycle of length n (the shorter way around).
func CycleDistance(i, j, n int) int {
	d := i - j
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return d
}
