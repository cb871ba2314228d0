package chordality

import (
	"cmp"
	"slices"

	"repro/internal/graph"
)

// nestPointsAway reports whether H¹ of the bipartite graph with CSR
// arrays (off, adj) and sides side is β-acyclic, i.e. whether the graph
// is (6,1)-chordal: whether deleting nest points, over and over, deletes
// every V1 vertex. A nest point is a V1 vertex whose V2 neighbours' live
// neighbourhoods — the edges of H¹ through it — form an inclusion chain.
//
// A worklist holds the V1 vertices still to test. A vertex that fails is
// tested again only once a vertex sharing one of its edges is deleted:
// see the package comment for why nothing else can make it a nest point.
func nestPointsAway(off, adj []int32, side []graph.Side) bool {
	n := int32(len(off) - 1)
	r := newLiveRows(off, adj)
	size := make([]int32, n) // live members of each edge (V2 vertex)
	mark := make([]int32, n) // mark[u] == w: u is in edge w
	queued := make([]bool, n)
	var queue, chain []int32
	left := 0
	for v := n - 1; v >= 0; v-- {
		size[v] = off[v+1] - off[v]
		mark[v] = -1
		if side[v] == graph.Side1 {
			queued[v] = true
			queue = append(queue, v)
			left++
		}
	}
	// nest reports whether v's edges form an inclusion chain: sorted by
	// size, each must lie inside the next.
	nest := func(v int32) bool {
		chain = append(chain[:0], adj[off[v]:off[v+1]]...)
		slices.SortFunc(chain, func(a, b int32) int { return cmp.Compare(size[a], size[b]) })
		for i := 1; i < len(chain); i++ {
			big := chain[i]
			for _, u := range r.row(big) {
				mark[u] = big
			}
			for _, u := range r.row(chain[i-1]) {
				if mark[u] != big {
					return false
				}
			}
		}
		return true
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		queued[v] = false
		if !nest(v) {
			continue
		}
		r.dead[v] = true
		left--
		for _, w := range adj[off[v]:off[v+1]] {
			size[w]--
			for _, u := range r.row(w) {
				if !queued[u] {
					queued[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	return left == 0
}
