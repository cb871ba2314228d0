package steiner

import (
	"context"
	"slices"

	"repro/internal/graph"
	"repro/internal/intset"
)

// RankedCovers enumerates the node sets of *connection trees* over the
// terminals, ranked by the number of auxiliary (non-terminal) nodes,
// smallest first, ties broken canonically — the order in which a
// disambiguating interface proposes query interpretations (Section 1 of
// the paper; Fig 1's birthdate reading before its works-in reading).
//
// A connection tree is a tree of g containing every terminal whose leaves
// are all terminals (an internal auxiliary node may be "skippable" for
// connectivity — the works-in reading remains a distinct interpretation
// even though the birthdate edge already connects the query). Two trees
// with the same node set count once. At most maxAux auxiliary nodes are
// considered and at most limit sets returned: the first limit sets of the
// full ranking.
//
// Levels. Level k holds the sets with exactly k auxiliary nodes. The
// levels run k = 0, 1, …, maxAux, and the enumeration stops after the
// first level that brings the result to limit: every set of a level
// outranks every set of the next.
//
// Radius. Level k draws its auxiliary nodes only from the non-terminals
// within distance ⌈k/2⌉ of the terminal set, found by one multi-source
// BFS bounded at ⌈maxAux/2⌉. No set is lost. In a connection tree with a
// auxiliary nodes, an auxiliary node v is no leaf, so it is internal:
// two of its branches leave it, and each ends in leaves of the tree,
// which are terminals. Follow each branch from v to its first terminal,
// at tree distances d₁ and d₂. Only v and auxiliary nodes lie before
// those terminals, and the two paths share only v, so d₁ + d₂ − 1 ≤ a;
// hence v lies within tree distance, and so graph distance, ⌈a/2⌉ of a
// terminal. Likewise a single terminal is its only connection tree: a
// tree of two or more nodes has two leaves.
//
// Tie-break. A level ranks its sets as their Key strings compare (decimal
// digits per element, so 10 sorts before 9), through the allocation-free
// intset.Set.CompareKey. It keeps only its need = limit − (sets found so
// far) smallest sets, in a max-heap of at most need sets, so a set that
// cannot make the cut costs one comparison and no tree test.
//
// Cost. Level k tests C(m, k) sets, m being the non-terminals within
// ⌈k/2⌉ of the terminals: exponential in maxAux, meant for schema-sized
// graphs and small budgets. Each test asks whether the induced subgraph
// has a spanning tree whose leaves are all terminals, by backtracking
// over the induced edges; it runs in buffers sized once per call, so
// only kept sets allocate. The context is checked once per candidate set
// and at a bounded stride inside the backtracking, so a deadline bounds
// the enumeration; on cancellation RankedCovers returns ctx.Err().
func RankedCovers(ctx context.Context, g *graph.Graph, terminals []int, maxAux, limit int) ([]intset.Set, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := intset.FromSlice(terminals)
	if len(p) == 1 {
		maxAux = min(maxAux, 0)
	}
	rk := newRanker(g, p, maxAux-maxAux/2)
	// Level k needs k candidates, and no level has more than the ball.
	maxAux = min(maxAux, len(rk.ball))
	var out []intset.Set
	for k := 0; k <= maxAux && len(out) < limit; k++ {
		level, err := rk.level(ctx, k, limit-len(out))
		if err != nil {
			return nil, err
		}
		out = append(out, level...)
	}
	return out, nil
}

// ranker holds one RankedCovers call: the BFS ball around the terminals
// and the buffers every candidate set is tested in.
type ranker struct {
	g *graph.Graph
	p intset.Set
	// dist is each node's BFS distance from the terminals, -1 beyond the
	// radius, so the terminals are the nodes at distance 0; ball lists the
	// reached non-terminals, nearest first.
	dist []int32
	ball []int
	// cands are one level's candidates, ascending; idx picks k of them.
	cands []int
	idx   []int
	// sel is the set under test; pos maps a node to its position in sel,
	// -1 outside.
	sel intset.Set
	pos []int32
	// The tree test's edges (position pairs), degrees, chosen edges and
	// union-find parents.
	edges  [][2]int32
	deg    []int32
	chosen [][2]int32
	parent []int32
	steps  int // backtracking steps, for the strided ctx poll
}

// newRanker runs the multi-source BFS from the terminals out to radius
// and sizes the buffers for sets of the terminals plus the ball.
func newRanker(g *graph.Graph, p intset.Set, radius int) *ranker {
	marks := make([]int32, 2*g.N())
	for i := range marks {
		marks[i] = -1
	}
	rk := &ranker{g: g, p: p, dist: marks[:g.N()], pos: marks[g.N():]}
	queue := append(make([]int, 0, g.N()), p...)
	for _, t := range p {
		rk.dist[t] = 0
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if int(rk.dist[v]) >= radius {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if rk.dist[w] < 0 {
				rk.dist[w] = rk.dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	rk.ball = queue[len(p):]
	n := len(p) + len(rk.ball)
	rk.cands, rk.idx = make([]int, 0, len(rk.ball)), make([]int, 0, len(rk.ball))
	rk.sel = make(intset.Set, 0, n)
	ints := make([]int32, 2*n)
	rk.deg, rk.parent = ints[:n], ints[n:]
	return rk
}

// level returns level k's need smallest connection-tree sets in Key
// order.
func (rk *ranker) level(ctx context.Context, k, need int) ([]intset.Set, error) {
	radius := int32(k - k/2)
	rk.cands = rk.cands[:0]
	for _, v := range rk.ball {
		if rk.dist[v] > radius {
			break
		}
		rk.cands = append(rk.cands, v)
	}
	if k > len(rk.cands) {
		return nil, nil
	}
	slices.Sort(rk.cands)
	rk.idx = rk.idx[:0]
	for i := range k {
		rk.idx = append(rk.idx, i)
	}
	var kept []intset.Set // a max-heap in Key order
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rk.compose()
		if (len(kept) < need || rk.sel.CompareKey(kept[0]) < 0) && rk.connectionTree(ctx) {
			kept = keepSmallest(kept, rk.sel, need)
		}
		if !nextCombination(rk.idx, len(rk.cands)) {
			break
		}
	}
	// The last tree test may have stopped on cancellation.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	slices.SortFunc(kept, intset.Set.CompareKey)
	return kept, nil
}

// compose sets sel to the terminals plus the candidates idx picks, in
// ascending order.
func (rk *ranker) compose() {
	rk.sel = rk.sel[:0]
	i := 0
	for _, j := range rk.idx {
		v := rk.cands[j]
		for ; i < len(rk.p) && rk.p[i] < v; i++ {
			rk.sel = append(rk.sel, rk.p[i])
		}
		rk.sel = append(rk.sel, v)
	}
	rk.sel = append(rk.sel, rk.p[i:]...)
}

// nextCombination advances idx, k ascending indices into [0, n), to the
// next k-combination in lexicographic order; false after the last.
func nextCombination(idx []int, n int) bool {
	k := len(idx)
	i := k - 1
	for i >= 0 && idx[i] == n-k+i {
		i--
	}
	if i < 0 {
		return false
	}
	idx[i]++
	for j := i + 1; j < k; j++ {
		idx[j] = idx[j-1] + 1
	}
	return true
}

// keepSmallest offers set to kept, a max-heap in Key order of at most
// need sets, and returns the heap. A full heap must hold a set larger
// than set: set then overwrites the largest, which has its length, as
// every set of a level has.
func keepSmallest(kept []intset.Set, set intset.Set, need int) []intset.Set {
	if len(kept) < need {
		kept = append(kept, slices.Clone(set))
		for i := len(kept) - 1; i > 0; {
			up := (i - 1) / 2
			if kept[up].CompareKey(kept[i]) >= 0 {
				break
			}
			kept[up], kept[i] = kept[i], kept[up]
			i = up
		}
		return kept
	}
	copy(kept[0], set)
	for i := 0; ; {
		top := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(kept) && kept[c].CompareKey(kept[top]) > 0 {
				top = c
			}
		}
		if top == i {
			return kept
		}
		kept[i], kept[top] = kept[top], kept[i]
		i = top
	}
}

// connectionTree reports whether the subgraph induced by sel has a
// spanning tree whose leaves all lie in P. Backtracking over the induced
// edge set; exponential in the worst case but fine at interpretation
// scale. On cancellation the result is meaningless and the caller must
// check ctx.Err().
func (rk *ranker) connectionTree(ctx context.Context) bool {
	n := len(rk.sel)
	if n <= 1 {
		return n == 1
	}
	for i, v := range rk.sel {
		rk.pos[v] = int32(i)
	}
	rk.edges = rk.edges[:0]
	deg := rk.deg[:n]
	clear(deg)
	for i, v := range rk.sel {
		for _, w := range rk.g.Neighbors(v) {
			// sel is ascending, so a later position is a larger node.
			if j := rk.pos[w]; j > int32(i) {
				rk.edges = append(rk.edges, [2]int32{int32(i), j})
				deg[i]++
				deg[j]++
			}
		}
	}
	for _, v := range rk.sel {
		rk.pos[v] = -1
	}
	if len(rk.edges) < n-1 {
		return false
	}
	// An auxiliary node with < 2 induced neighbours can never be internal.
	for i, v := range rk.sel {
		if rk.dist[v] != 0 && deg[i] < 2 {
			return false
		}
	}
	rk.chosen = rk.chosen[:0]
	return rk.backtrack(ctx, 0)
}

// backtrack tries every way to complete chosen to n-1 edges from
// edges[next:]. steps accumulates work across calls so the context is
// polled at a bounded stride even when individual tests are tiny.
func (rk *ranker) backtrack(ctx context.Context, next int) bool {
	rk.steps++
	if rk.steps&1023 == 0 && ctx.Err() != nil {
		return false
	}
	n := len(rk.sel)
	if len(rk.chosen) == n-1 {
		return rk.terminalLeafTree()
	}
	if len(rk.edges)-next < n-1-len(rk.chosen) {
		return false
	}
	rk.chosen = append(rk.chosen, rk.edges[next])
	if rk.backtrack(ctx, next+1) {
		return true
	}
	rk.chosen = rk.chosen[:len(rk.chosen)-1]
	return rk.backtrack(ctx, next+1)
}

// terminalLeafTree checks that the chosen edges form a spanning tree of
// sel whose leaves are all terminals.
func (rk *ranker) terminalLeafTree() bool {
	n := len(rk.sel)
	parent, deg := rk.parent[:n], rk.deg[:n]
	for i := range parent {
		parent[i] = int32(i)
	}
	clear(deg)
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range rk.chosen {
		ru, rv := find(e[0]), find(e[1])
		if ru == rv {
			return false // cycle: not a tree
		}
		parent[ru] = rv
		deg[e[0]]++
		deg[e[1]]++
	}
	// n-1 acyclic edges over n nodes = spanning tree; check leaves.
	for i, v := range rk.sel {
		if rk.dist[v] != 0 && deg[i] <= 1 {
			return false
		}
	}
	return true
}
