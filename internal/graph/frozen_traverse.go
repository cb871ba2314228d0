package graph

// Traversal over the frozen CSR view that the bit kernels (frozen_bits.go)
// do not cover: component counting, the forest test, and shortest paths.
// They iterate flat int32 slices, allocate only their working arrays, and
// are safe for unsynchronized concurrent use — they never write to the
// Frozen.

// ComponentCount returns the number of connected components.
func (f *Frozen) ComponentCount() int {
	seen := make([]bool, f.N())
	queue := make([]int32, 0, 64)
	count := 0
	for s := 0; s < f.N(); s++ {
		if seen[s] {
			continue
		}
		count++
		seen[s] = true
		queue = append(queue[:0], int32(s))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range f.neighbors[f.offsets[v]:f.offsets[v+1]] {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	return count
}

// IsForest reports whether the graph has no cycles.
func (f *Frozen) IsForest() bool {
	return f.m == f.N()-f.ComponentCount()
}

// ShortestPath returns a shortest path from u to v as a node sequence
// (inclusive of both endpoints), or nil if v is unreachable from u. The
// BFS visits neighbors in CSR order, so ties between equally short paths
// break the same way on every call.
func (f *Frozen) ShortestPath(u, v int) []int {
	f.check(u)
	f.check(v)
	if u == v {
		return []int{u}
	}
	prev := make([]int32, f.N())
	for i := range prev {
		prev[i] = -1
	}
	prev[u] = int32(u)
	queue := make([]int32, 1, 64)
	queue[0] = int32(u)
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, w := range f.neighbors[f.offsets[x]:f.offsets[x+1]] {
			if prev[w] != -1 {
				continue
			}
			prev[w] = x
			if int(w) == v {
				var rev []int
				for c := v; c != u; c = int(prev[c]) {
					rev = append(rev, c)
				}
				rev = append(rev, u)
				for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
					rev[i], rev[j] = rev[j], rev[i]
				}
				return rev
			}
			queue = append(queue, w)
		}
	}
	return nil
}
