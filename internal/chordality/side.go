package chordality

import "slices"

// sideVerdicts decides Vi-chordality and Vi-conformity of the bipartite
// graph with CSR arrays (off, adj), where nodes lists side i and edges
// the other side: Hⁱ has a node per vertex of nodes and an edge per
// neighbourhood of a vertex of edges. Repeated edges are dropped first;
// see the package comment for why no verdict changes.
func sideVerdicts(off, adj []int32, nodes, edges []int) (chordal, conformal bool) {
	keep, kept := distinctRows(off, adj, edges)
	return chordalCSR(primal(off, adj, nodes, keep)), gilmore(off, adj, keep, kept)
}

// distinctRows returns the vertices of vs with a nonempty CSR row that
// no earlier vertex of vs shares, as a list and as flags indexed by id.
// Rows are bucketed by hash and confirmed equal before one is dropped.
func distinctRows(off, adj []int32, vs []int) (keep []bool, kept []int32) {
	keep = make([]bool, len(off)-1)
	same := make([]int32, len(off)-1) // next kept vertex with the same hash
	first := make(map[uint64]int32, len(vs))
next:
	for _, v := range vs {
		row := adj[off[v]:off[v+1]]
		if len(row) == 0 {
			continue
		}
		var h uint64
		for _, u := range row {
			h += mix64(u)
		}
		x, ok := first[h]
		if !ok {
			x = -1
		}
		for y := x; y >= 0; y = same[y] {
			if slices.Equal(adj[off[y]:off[y+1]], row) {
				continue next
			}
		}
		same[v], first[h] = x, int32(v)
		keep[v] = true
		kept = append(kept, int32(v))
	}
	return keep, kept
}

// primal builds the CSR arrays of the primal graph of Hⁱ over the kept
// edges: vertex k stands for nodes[k], and two are adjacent iff a kept
// edge holds both.
func primal(off, adj []int32, nodes []int, keep []bool) (poff, padj []int32) {
	n := len(off) - 1
	loc := make([]int32, n)
	seen := make([]int32, n) // seen[x] == k+1: x is already a neighbour of k
	for k, v := range nodes {
		loc[v] = int32(k)
	}
	poff = make([]int32, 1, len(nodes)+1)
	for k, v := range nodes {
		seen[v] = int32(k + 1)
		for _, w := range adj[off[v]:off[v+1]] {
			if !keep[w] {
				continue
			}
			for _, x := range adj[off[w]:off[w+1]] {
				if seen[x] != int32(k+1) {
					seen[x] = int32(k + 1)
					padj = append(padj, loc[x])
				}
			}
		}
		poff = append(poff, int32(len(padj)))
	}
	return poff, padj
}

// gilmore reports whether the hypergraph whose edges are the CSR rows of
// the kept vertices is conformal, by Gilmore's criterion: for every three
// distinct, pairwise intersecting edges a < b < c (by id), some edge
// holds u = (a∩b) ∪ (b∩c) ∪ (c∩a). For a pair a < b only a third edge
// through a node of a△b is tried, since otherwise u = a∩b ⊆ a. A cover
// holds every node of u, so the candidates are the kept edges through
// the node of u on the fewest edges.
func gilmore(off, adj []int32, keep []bool, kept []int32) bool {
	n := len(off) - 1
	inA := make([]int32, n) // inA[x] == a: x ∈ a
	inB := make([]int32, n) // inB[x] == b: x ∈ b
	for x := range inA {
		inA[x], inB[x] = -1, -1
	}
	listed := make([]bool, n)
	var partners, thirds, ab, u []int32
	list := func(dst []int32, e int32, after int32) []int32 {
		if e > after && keep[e] && !listed[e] {
			listed[e] = true
			dst = append(dst, e)
		}
		return dst
	}
	for _, a := range kept {
		rowA := adj[off[a]:off[a+1]]
		partners = partners[:0]
		for _, x := range rowA {
			inA[x] = a
			for _, b := range adj[off[x]:off[x+1]] {
				partners = list(partners, b, a)
			}
		}
		for _, b := range partners {
			listed[b] = false
		}
		for _, b := range partners {
			rowB := adj[off[b]:off[b+1]]
			ab, thirds = ab[:0], thirds[:0]
			for _, x := range rowB {
				inB[x] = b
				if inA[x] == a {
					ab = append(ab, x)
				}
			}
			for _, row := range [2][]int32{rowA, rowB} {
				for _, y := range row {
					if (inA[y] == a) == (inB[y] == b) {
						continue // y ∈ a∩b
					}
					for _, c := range adj[off[y]:off[y+1]] {
						thirds = list(thirds, c, b)
					}
				}
			}
			for _, c := range thirds {
				listed[c] = false
			}
			for _, c := range thirds {
				u = append(u[:0], ab...)
				meetsA, meetsB := false, false
				for _, x := range adj[off[c]:off[c+1]] {
					xa, xb := inA[x] == a, inB[x] == b
					meetsA, meetsB = meetsA || xa, meetsB || xb
					if xa != xb {
						u = append(u, x)
					}
				}
				if meetsA && meetsB && !covered(off, adj, keep, u) {
					return false
				}
			}
		}
	}
	return true
}

// covered reports whether some kept edge holds every node of u.
func covered(off, adj []int32, keep []bool, u []int32) bool {
	z := u[0]
	for _, x := range u[1:] {
		if off[x+1]-off[x] < off[z+1]-off[z] {
			z = x
		}
	}
	for _, e := range adj[off[z]:off[z+1]] {
		if keep[e] && holds(adj[off[e]:off[e+1]], u) {
			return true
		}
	}
	return false
}

// holds reports whether the sorted row contains every element of u.
func holds(row, u []int32) bool {
	for _, x := range u {
		if _, ok := slices.BinarySearch(row, x); !ok {
			return false
		}
	}
	return true
}
