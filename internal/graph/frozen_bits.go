//chordal:hotpath

package graph

import "math/bits"

// Word-parallel traversal kernels over the frozen view's dense bitset
// adjacency matrix. One BFS wave is computed 64 candidate nodes per machine
// word: the next frontier is the OR of the matrix rows of the current
// frontier, masked by the alive set and the not-yet-visited set —
//
//	next = (OR of matrix[v] for v in frontier) & alive &^ visited
//
// so the cost per wave is O(|frontier| · n/64) word operations instead of
// one branchy CSR walk per arc. Every kernel falls back to the classic CSR
// queue walk when the matrix was not compiled (n > matrixMaxN), with
// identical results; the kernels never write to the Frozen, so they are
// safe for unsynchronized concurrent use with caller-owned scratch.

// BitScratch bundles the reusable buffers of the bit kernels — the visited
// mask, two frontier masks, and the CSR-fallback queue. A BitScratch is
// owned by one goroutine at a time; reusing it across queries (see the
// sync.Pool in internal/steiner) makes the kernels allocation-free in
// steady state.
type BitScratch struct {
	// Visited is the kernel result: after Reachable/ReachesAll it holds
	// every node reached (it aliases the scratch, valid until the next
	// kernel call on this scratch).
	Visited Bits

	frontier, next Bits
	queue          []int32
}

// NewBitScratch returns scratch sized for an n-node graph.
func NewBitScratch(n int) *BitScratch {
	sc := &BitScratch{}
	sc.grow(n)
	return sc
}

// grow ensures the buffers cover n nodes, reusing capacity when possible.
func (sc *BitScratch) grow(n int) {
	sc.Visited = sc.Visited.Grow(n)
	sc.frontier = sc.frontier.Grow(n)
	sc.next = sc.next.Grow(n)
	if cap(sc.queue) < n {
		sc.queue = make([]int32, 0, n)
	}
}

// orRow ORs the adjacency row of v into dst.
func (f *Frozen) orRow(v int, dst Bits) {
	row := f.matrix[v*f.stride : (v+1)*f.stride]
	for i, w := range row {
		dst[i] |= w
	}
}

// expandWave computes one BFS wave: next = neighbors(frontier) & alive &^
// visited, folds it into visited, and reports whether the wave reached any
// new node. alive == nil means all nodes are alive.
func (f *Frozen) expandWave(alive Bits, visited, frontier, next Bits) bool {
	next.Reset()
	for wi, w := range frontier {
		base := wi << 6
		for w != 0 {
			f.orRow(base+bits.TrailingZeros64(w), next)
			w &= w - 1
		}
	}
	any := false
	for i := range next {
		nw := next[i] &^ visited[i]
		if alive != nil {
			nw &= alive[i]
		}
		next[i] = nw
		visited[i] |= nw
		any = any || nw != 0
	}
	return any
}

// Reachable computes the set of nodes reachable from start inside the
// alive subgraph (alive == nil: the whole graph) into sc.Visited and
// returns it. The result aliases the scratch. start itself is included
// whenever it is alive; an excluded start yields the empty mask.
func (f *Frozen) Reachable(start int, alive Bits, sc *BitScratch) Bits {
	f.check(start)
	sc.grow(f.N())
	visited := sc.Visited
	visited.Reset()
	if alive != nil && !alive.Has(start) {
		return visited
	}
	visited.Set(start)
	if f.matrix == nil {
		f.reachCSR(alive, visited, start, sc)
		return visited
	}
	frontier, next := sc.frontier, sc.next
	frontier.Reset()
	frontier.Set(start)
	for f.expandWave(alive, visited, frontier, next) {
		frontier, next = next, frontier
	}
	sc.frontier, sc.next = frontier, next
	return visited
}

// ReachesAll is the early-exit reachability probe: it reports whether
// every node of targets is reachable from start inside the alive subgraph,
// stopping as soon as the remaining targets are covered. targets must not
// alias the scratch. Callers must ensure the targets are alive themselves
// (a dead target is simply unreachable and yields false).
func (f *Frozen) ReachesAll(start int, alive, targets Bits, sc *BitScratch) bool {
	f.check(start)
	sc.grow(f.N())
	visited := sc.Visited
	visited.Reset()
	if alive != nil && !alive.Has(start) {
		return false
	}
	visited.Set(start)
	if targets.SubsetOf(visited) {
		return true
	}
	if f.matrix == nil {
		return f.reachCSRTargets(alive, visited, targets, start, sc)
	}
	frontier, next := sc.frontier, sc.next
	frontier.Reset()
	frontier.Set(start)
	for f.expandWave(alive, visited, frontier, next) {
		if targets.SubsetOf(visited) {
			sc.frontier, sc.next = frontier, next
			return true
		}
		frontier, next = next, frontier
	}
	sc.frontier, sc.next = frontier, next
	return targets.SubsetOf(visited)
}

// reachCSR floods visited from start over the CSR arrays (matrix-less
// fallback), on the scratch stack. The flood order differs from the wave
// kernel but the visited set — the only output — is identical.
func (f *Frozen) reachCSR(alive, visited Bits, start int, sc *BitScratch) {
	queue := append(sc.queue[:0], int32(start))
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, w := range f.neighbors[f.offsets[v]:f.offsets[v+1]] {
			if visited.Has(int(w)) || (alive != nil && !alive.Has(int(w))) {
				continue
			}
			visited.Set(int(w))
			queue = append(queue, w)
		}
	}
	sc.queue = queue[:0]
}

// reachCSRTargets is reachCSR with the targets early exit.
func (f *Frozen) reachCSRTargets(alive, visited, targets Bits, start int, sc *BitScratch) bool {
	queue := append(sc.queue[:0], int32(start))
	covered := false
	for len(queue) > 0 && !covered {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, w := range f.neighbors[f.offsets[v]:f.offsets[v+1]] {
			if visited.Has(int(w)) || (alive != nil && !alive.Has(int(w))) {
				continue
			}
			visited.Set(int(w))
			if targets.SubsetOf(visited) {
				covered = true
				break
			}
			queue = append(queue, w)
		}
	}
	sc.queue = queue[:0]
	return covered || targets.SubsetOf(visited)
}

// BFSDistancesBits fills dist (len ≥ N) with the unweighted distance from
// start to every alive node (-1 for unreachable or dead nodes), running
// the wave kernel level by level: every node first reached in wave k is at
// distance k. alive == nil means all nodes. Allocation-free given
// caller-owned dist and scratch; identical to BFSDistancesAlive.
func (f *Frozen) BFSDistancesBits(start int, alive Bits, dist []int32, sc *BitScratch) {
	f.check(start)
	sc.grow(f.N())
	for i := 0; i < f.N(); i++ {
		dist[i] = -1
	}
	if alive != nil && !alive.Has(start) {
		return
	}
	dist[start] = 0
	visited := sc.Visited
	visited.Reset()
	visited.Set(start)
	if f.matrix == nil {
		f.bfsDistCSR(start, alive, dist, visited, sc)
		return
	}
	frontier, next := sc.frontier, sc.next
	frontier.Reset()
	frontier.Set(start)
	for level := int32(1); ; level++ {
		if !f.expandWave(alive, visited, frontier, next) {
			break
		}
		for wi, w := range next {
			base := wi << 6
			for w != 0 {
				dist[base+bits.TrailingZeros64(w)] = level
				w &= w - 1
			}
		}
		frontier, next = next, frontier
	}
	sc.frontier, sc.next = frontier, next
}

// bfsDistCSR is the matrix-less BFS-distances fallback, reusing the
// scratch queue.
func (f *Frozen) bfsDistCSR(start int, alive Bits, dist []int32, visited Bits, sc *BitScratch) {
	queue := sc.queue[:0]
	queue = append(queue, int32(start))
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range f.neighbors[f.offsets[v]:f.offsets[v+1]] {
			if visited.Has(int(w)) || (alive != nil && !alive.Has(int(w))) {
				continue
			}
			visited.Set(int(w))
			dist[w] = dist[v] + 1
			queue = append(queue, w)
		}
	}
	sc.queue = queue[:0]
}

// ComponentBits computes the mask of the connected component containing
// every seed into sc.Visited, returning (mask, true); when the seeds span
// several components (or seeds is empty) it returns (nil, false). The mask
// aliases the scratch. The flood runs on the matrix kernel when compiled,
// on the CSR walk otherwise.
func (f *Frozen) ComponentBits(seeds []int, sc *BitScratch) (Bits, bool) {
	if len(seeds) == 0 {
		return nil, false
	}
	mask := f.Reachable(seeds[0], nil, sc)
	for _, s := range seeds {
		f.check(s)
		if !mask.Has(s) {
			return nil, false
		}
	}
	return mask, true
}
