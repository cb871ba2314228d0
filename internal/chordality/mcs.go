package chordality

import "repro/internal/graph"

// IsChordal reports whether f is chordal (every cycle of length ≥ 4 has a
// chord). The test runs maximum cardinality search and verifies that the
// reverse visit order is a perfect elimination ordering — it is iff f is
// chordal (Tarjan & Yannakakis, SIAM J. Comput. 1984).
func IsChordal(f *graph.Frozen) bool {
	off, adj := f.CSR()
	return chordalCSR(off, adj)
}

// MCSOrder returns a maximum cardinality search visit order: each step
// visits an unvisited node with the maximum number of visited neighbours.
// Ties go to the node that reached that count last (a bucket queue's
// stack order), so the order is deterministic.
func MCSOrder(f *graph.Frozen) []int {
	off, adj := f.CSR()
	return ints(mcsOrder(off, adj))
}

// PerfectEliminationOrder returns the reverse MCS order of f and true if
// it is a perfect elimination ordering (each node's later neighbours form
// a clique), which holds iff f is chordal; otherwise nil and false.
func PerfectEliminationOrder(f *graph.Frozen) ([]int, bool) {
	off, adj := f.CSR()
	order := mcsOrder(off, adj)
	if !zeroFillIn(off, adj, order) {
		return nil, false
	}
	peo := ints(order)
	for i, j := 0, len(peo)-1; i < j; i, j = i+1, j-1 {
		peo[i], peo[j] = peo[j], peo[i]
	}
	return peo, true
}

// chordalCSR reports whether the graph with CSR arrays (off, adj) is
// chordal: one MCS, then the zero fill-in check of its reverse.
func chordalCSR(off, adj []int32) bool {
	return zeroFillIn(off, adj, mcsOrder(off, adj))
}

// mcsOrder runs maximum cardinality search over CSR arrays in O(n + m):
// unvisited vertices sit in doubly linked buckets indexed by their count
// of visited neighbours, and the highest nonempty bucket only ever rises
// by one per visited neighbour, so scanning down for it costs O(n + m) in
// all.
func mcsOrder(off, adj []int32) []int32 {
	n := int32(len(off) - 1)
	weight := make([]int32, n) // visited neighbours; -1 once visited
	head := make([]int32, n+1) // head[w]: first vertex of bucket w, or -1
	prev := make([]int32, n)
	next := make([]int32, n)
	for i := range head {
		head[i] = -1
	}
	push := func(v, w int32) {
		prev[v], next[v] = -1, head[w]
		if head[w] >= 0 {
			prev[head[w]] = v
		}
		head[w] = v
	}
	unlink := func(v, w int32) {
		if prev[v] >= 0 {
			next[prev[v]] = next[v]
		} else {
			head[w] = next[v]
		}
		if next[v] >= 0 {
			prev[next[v]] = prev[v]
		}
	}
	for v := n - 1; v >= 0; v-- {
		push(v, 0)
	}
	order := make([]int32, 0, n)
	top := int32(0)
	for range n {
		for head[top] < 0 {
			top--
		}
		v := head[top]
		unlink(v, top)
		weight[v] = -1
		order = append(order, v)
		for _, u := range adj[off[v]:off[v+1]] {
			if w := weight[u]; w >= 0 {
				unlink(u, w)
				weight[u] = w + 1
				push(u, w+1)
				top = max(top, w+1)
			}
		}
	}
	return order
}

// zeroFillIn reports whether the reverse of the visit order is a perfect
// elimination ordering of the graph with CSR arrays (off, adj). In that
// ordering a vertex's later neighbours are those visited before it, and
// its follower is the one visited last. Golumbic's test asks only that
// every other later neighbour be adjacent to the follower. The check
// hands each vertex to its follower's list and marks the follower's
// neighbourhood once for the whole list, so it runs in O(n + m).
func zeroFillIn(off, adj, order []int32) bool {
	n := len(off) - 1
	idx := make([]int32, n)
	for i, v := range order {
		idx[v] = int32(i)
	}
	first := make([]int32, n) // first vertex whose follower is f, or -1
	link := make([]int32, n)  // next vertex with the same follower
	mark := make([]int32, n)  // mark[u] == f: u is adjacent to f
	for i := range first {
		first[i], mark[i] = -1, -1
	}
	for v := range int32(n) {
		f := int32(-1)
		for _, u := range adj[off[v]:off[v+1]] {
			if idx[u] < idx[v] && (f < 0 || idx[u] > idx[f]) {
				f = u
			}
		}
		if f >= 0 {
			link[v], first[f] = first[f], v
		}
	}
	for f := range int32(n) {
		if first[f] < 0 {
			continue
		}
		for _, u := range adj[off[f]:off[f+1]] {
			mark[u] = f
		}
		for v := first[f]; v >= 0; v = link[v] {
			for _, u := range adj[off[v]:off[v+1]] {
				if idx[u] < idx[v] && u != f && mark[u] != f {
					return false
				}
			}
		}
	}
	return true
}

func ints(vs []int32) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = int(v)
	}
	return out
}
