package chordality

import "slices"

// liveRows is a working copy of CSR adjacency from which vertices are
// deleted lazily: row v is adj[off[v]:end[v]], and reading it moves the
// entries of deleted vertices past end, so each entry is dropped once
// per row and all the reads of a run cost O(m) plus what they return.
// Reads reorder a row.
type liveRows struct {
	off, end, adj []int32
	dead          []bool
}

func newLiveRows(off, adj []int32) liveRows {
	return liveRows{
		off:  off,
		end:  slices.Clone(off[1:]),
		adj:  slices.Clone(adj),
		dead: make([]bool, len(off)-1),
	}
}

// row returns the live neighbours of v.
func (r *liveRows) row(v int32) []int32 {
	lo, hi := r.off[v], r.end[v]
	for i := lo; i < hi; {
		if r.dead[r.adj[i]] {
			hi--
			r.adj[i] = r.adj[hi]
		} else {
			i++
		}
	}
	r.end[v] = hi
	return r.adj[lo:hi]
}

// mix64 is splitmix64's finalizer, a fixed bijection of the vertex ids. A
// neighbourhood hashes to the wrapping sum of its members' mixes, so a
// deleted member comes off by one subtraction.
func mix64(x int32) uint64 {
	z := uint64(x) + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// prunesAway reports whether the bipartite graph with CSR arrays
// (off, adj) is (6,2)-chordal: whether deleting, over and over, a vertex
// of degree ≤ 1 or one of two false twins (equal neighbourhoods) deletes
// every vertex. See the package comment for why.
//
// A worklist holds the vertices whose neighbourhood changed since they
// were last looked at. A looked-at vertex of degree ≥ 2 is filed in a
// bucket keyed by its neighbourhood hash, and a vertex's twins can only
// be in its own bucket, so filing compares it with that bucket alone.
// Equal hashes are confirmed by comparing the neighbourhoods, so a hash
// collision costs a comparison, never a verdict. Deleting a vertex
// unfiles and requeues its live neighbours, so each vertex is queued at
// most 1 + deg times: O(n + m) expected.
func prunesAway(off, adj []int32) bool {
	n := int32(len(off) - 1)
	p := pruner{
		liveRows: newLiveRows(off, adj),
		deg:      make([]int32, n),
		hash:     make([]uint64, n),
		prev:     make([]int32, n),
		next:     make([]int32, n),
		filed:    make([]bool, n),
		queued:   make([]bool, n),
		mark:     make([]int32, n),
		bucket:   make(map[uint64]int32),
		queue:    make([]int32, 0, n),
	}
	for v := n - 1; v >= 0; v-- {
		row := adj[off[v]:off[v+1]]
		p.deg[v] = int32(len(row))
		for _, u := range row {
			p.hash[v] += mix64(u)
		}
		p.mark[v] = -1
		p.queued[v] = true
		p.queue = append(p.queue, v)
	}
	left := n
	for len(p.queue) > 0 {
		v := p.queue[len(p.queue)-1]
		p.queue = p.queue[:len(p.queue)-1]
		p.queued[v] = false
		if p.deg[v] <= 1 || p.twinFiled(v) {
			p.delete(v)
			left--
		} else {
			p.file(v)
		}
	}
	return left == 0
}

// pruner is prunesAway's state. A filed vertex is in the doubly linked
// bucket of its current hash; no two filed vertices are twins.
type pruner struct {
	liveRows
	deg        []int32
	hash       []uint64
	prev, next []int32
	filed      []bool
	queued     []bool
	mark       []int32
	bucket     map[uint64]int32 // first filed vertex of each hash
	queue      []int32
}

// twinFiled reports whether a filed vertex has v's live neighbourhood.
func (p *pruner) twinFiled(v int32) bool {
	x, ok := p.bucket[p.hash[v]]
	if !ok {
		return false
	}
	for _, u := range p.row(v) {
		p.mark[u] = v
	}
	for ; x >= 0; x = p.next[x] {
		if p.deg[x] == p.deg[v] && p.marked(x, v) {
			return true
		}
	}
	return false
}

// marked reports whether every live neighbour of x carries mark v.
func (p *pruner) marked(x, v int32) bool {
	for _, u := range p.row(x) {
		if p.mark[u] != v {
			return false
		}
	}
	return true
}

func (p *pruner) file(v int32) {
	h := p.hash[v]
	x, ok := p.bucket[h]
	if !ok {
		x = -1
	}
	p.prev[v], p.next[v] = -1, x
	if x >= 0 {
		p.prev[x] = v
	}
	p.bucket[h] = v
	p.filed[v] = true
}

func (p *pruner) unfile(v int32) {
	p.filed[v] = false
	h, pv, nx := p.hash[v], p.prev[v], p.next[v]
	switch {
	case pv >= 0:
		p.next[pv] = nx
	case nx >= 0:
		p.bucket[h] = nx
	default:
		delete(p.bucket, h)
	}
	if nx >= 0 {
		p.prev[nx] = pv
	}
}

// delete removes v and requeues its live neighbours, whose hashes change.
func (p *pruner) delete(v int32) {
	if p.filed[v] {
		p.unfile(v)
	}
	p.dead[v] = true
	for _, u := range p.row(v) {
		if p.filed[u] {
			p.unfile(u)
		}
		p.hash[u] -= mix64(v)
		p.deg[u]--
		if !p.queued[u] {
			p.queued[u] = true
			p.queue = append(p.queue, u)
		}
	}
}
