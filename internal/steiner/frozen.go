//chordal:hotpath

package steiner

// The Section 3 solvers, compiled against the immutable CSR views of
// internal/graph and internal/bipartite. Their answers — node set,
// spanning-tree edge order and errors — are pinned case by case in
// testdata/answers.golden. The hot loops:
//
//   - alive masks, terminal sets and visited sets are packed graph.Bits, so
//     the connectivity probes of the elimination passes run the word-parallel
//     wave kernel (graph.Frozen.ReachesAll) with an early exit as soon as
//     the terminal word-mask is covered — 64 candidate nodes per machine
//     word on matrix-backed schemes, the CSR fallback otherwise;
//   - Algorithm 1 runs on the terminals' component via an alive bitmask over
//     the shared CSR arrays, with no induced-subgraph copy, and reads the
//     component's Lemma 1 ordering from bipartite.Frozen's per-component
//     memo, so H¹ is built once per component rather than per query;
//   - the Dreyfus–Wagner tables are flat int32 blocks indexed by subset
//     and component-local id, s*|C|+i, and each subset's grow step is one
//     label-ordered BFS over the component's CSR arcs, so no distance rows
//     are built;
//   - every per-query buffer (bit scratch, alive/terminal masks, DP
//     tables, BFS buckets and FIFOs, the heuristic's terminal distance
//     rows) comes from a sync.Pool, so a steady-state Algorithm 1, Algorithm
//     2 or exact query on a warm pool allocates only its result: the node
//     and edge slices, each sized exactly once (see
//     TestAlgorithm2FrozenWarmAllocs and TestExactFrozenWarmAllocs). The
//     heuristic's fg.ShortestPath expansions still allocate.
//
// Every function here only reads the frozen views (the Lemma 1 memo, which
// bipartite.Frozen fills once per component and publishes atomically, is
// the one write), so one frozen scheme can serve any number of concurrent
// queries (see core.Service); the pooled scratch is owned by exactly one
// query between get and release.
//
// Each solver takes a context.Context and checks it periodically — at
// iteration granularity in the polynomial elimination passes, per
// terminal-subset in the exponential Dreyfus–Wagner program — returning
// ctx.Err() (context.Canceled or context.DeadlineExceeded, errors.Is-
// testable) so a deadline bounds the tail latency of a query instead of
// merely being observed after the solver finishes.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/bipartite"
	"repro/internal/graph"
	"repro/internal/intset"
	"repro/internal/trace"
)

// cancelStride is how many hot-loop iterations run between context checks
// in the polynomial solvers; a power of two so the check compiles to a mask
// test.
const cancelStride = 64

// frozenScratch bundles every reusable per-query buffer of the solvers.
// Instances cycle through scratchPool: a query takes one with getScratch,
// owns it exclusively until release, and never lets a buffer escape into a
// result (spanningTreeBits copies the answer into freshly allocated
// slices). All buffers grow monotonically, so a warm scratch serves any
// query on the same scheme without allocating.
type frozenScratch struct {
	bit    *graph.BitScratch // wave-kernel scratch (visited/frontier/queue)
	alive  graph.Bits        // the solver's mutable alive mask
	comp   graph.Bits        // component mask (Exact/Approximate)
	term   graph.Bits        // terminal mask / Prim in-tree mask
	seen   graph.Bits        // spanning-tree visited mask
	queue  []int32           // spanning-tree FIFO / Exact grow-step FIFO
	ints   []int             // member / order / removed-set list
	ints2  []int             // Exact terminal set / Prim bestTo
	local  []int32           // Exact: node id → component-local id; Prim best
	dist   []int32           // Approximate: terminal BFS distance rows
	bucket []int32           // Exact: counting-sort bucket ends per label
	seeds  []int32           // Exact: local ids sorted by label
	dp     []int32           // Exact: DP labels, dp[s*|C|+i] for local id i
	choice []int32           // Exact: how each label was reached
}

var scratchPool = sync.Pool{New: func() any { return &frozenScratch{} }}

// getScratch takes a scratch from the pool sized for an n-node scheme.
func getScratch(n int) *frozenScratch {
	sc := scratchPool.Get().(*frozenScratch)
	if sc.bit == nil {
		sc.bit = graph.NewBitScratch(n)
	}
	sc.alive = sc.alive.Grow(n)
	sc.comp = sc.comp.Grow(n)
	sc.term = sc.term.Grow(n)
	sc.seen = sc.seen.Grow(n)
	if cap(sc.queue) < n {
		sc.queue = make([]int32, 0, n)
	}
	return sc
}

// release returns the scratch to the pool.
func (sc *frozenScratch) release() { scratchPool.Put(sc) }

// grow32 returns an int32 buffer of length n reusing b's array when it is
// big enough; the contents are unspecified.
func grow32(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

// termMask fills sc.term with the terminal set and returns it.
func termMask(sc *frozenScratch, terminals []int) graph.Bits {
	sc.term.Reset()
	for _, p := range terminals {
		sc.term.Set(p)
	}
	return sc.term
}

// componentAliveBits writes the alive mask of the connected component of fg
// containing all terminals into dst and returns it, or an error when the
// terminals span components. When a batch-planner Shared knows the
// component already, the precomputed mask is copied instead of re-flooding.
func componentAliveBits(fg *graph.Frozen, terminals []int, sh *Shared, sc *frozenScratch, dst graph.Bits) (graph.Bits, error) {
	if len(terminals) == 0 {
		return nil, ErrEmptyTerminals
	}
	if mask, known := sh.component(terminals); known {
		if mask == nil {
			return nil, ErrDisconnectedTerminals
		}
		dst.CopyFrom(mask)
		return dst, nil
	}
	mask, ok := fg.ComponentBits(terminals, sc.bit)
	if !ok {
		return nil, ErrDisconnectedTerminals
	}
	dst.CopyFrom(mask)
	return dst, nil
}

// restrictToTerminalComponentBits clears alive bits outside the terminals'
// connected component.
func restrictToTerminalComponentBits(fg *graph.Frozen, alive graph.Bits, terminals []int, sc *frozenScratch) {
	if len(terminals) == 0 {
		return
	}
	alive.And(fg.Reachable(terminals[0], alive, sc.bit))
}

// coversBits reports whether the alive subgraph is a cover of the terminals
// per Definition 10 — every terminal alive, all alive nodes in one
// component. term must be the terminal mask and terminals non-empty.
func coversBits(fg *graph.Frozen, alive, term graph.Bits, terminals []int, bsc *graph.BitScratch) bool {
	if !term.SubsetOf(alive) {
		return false
	}
	return alive.SubsetOf(fg.Reachable(terminals[0], alive, bsc))
}

// spanningTreeBits builds the Tree result for an alive cover: its nodes in
// ascending order and the edges of a FIFO BFS tree from the smallest alive
// node, neighbors in CSR order. Both slices are allocated once, at their
// exact sizes, so they are the call's only allocations.
func spanningTreeBits(fg *graph.Frozen, alive graph.Bits, sc *frozenScratch) (Tree, error) {
	count := alive.Count()
	if count == 0 {
		return Tree{}, nil
	}
	nodes := alive.AppendOnes(make([]int, 0, count))
	if count == 1 {
		return Tree{Nodes: intset.Set(nodes)}, nil
	}
	edges := make([]graph.Edge, 0, count-1)
	start := nodes[0]
	seen := sc.seen
	seen.Reset()
	seen.Set(start)
	queue := append(sc.queue[:0], int32(start))
	visited := 1
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range fg.Neighbors(int(v)) {
			if seen.Has(int(w)) || !alive.Has(int(w)) {
				continue
			}
			seen.Set(int(w))
			visited++
			e := graph.Edge{U: int(v), V: int(w)}
			if e.V < e.U {
				e.U, e.V = e.V, e.U
			}
			edges = append(edges, e)
			queue = append(queue, w)
		}
	}
	sc.queue = queue[:0]
	if visited != count {
		return Tree{}, errors.New("steiner: cover is not connected (internal error)")
	}
	return Tree{Nodes: intset.Set(nodes), Edges: edges}, nil
}

// terminalsConnectedBits reports whether all terminals are alive and
// mutually connected in the alive subgraph: the word-parallel replacement
// for the epoch-stamped DFS probe. The subset test covers "all terminals
// alive" 64 at a time, and ReachesAll stops expanding waves as soon as the
// terminal word-mask is covered by the visited mask.
func terminalsConnectedBits(fg *graph.Frozen, alive, term graph.Bits, terminals []int, bsc *graph.BitScratch) bool {
	if !term.SubsetOf(alive) {
		return false
	}
	return fg.ReachesAll(terminals[0], alive, term, bsc)
}

// eliminatePass is the elimination loop of Definition 11, shared by every
// elimination solver: it visits the nodes of order — or, when identity is
// set, every id 0..n-1 without an order slice — and removes each alive
// non-terminal node whose removal leaves the terminals connected among
// themselves, each probe running the early-exit word-parallel
// connectivity search. Ids out of range are skipped. The context is
// checked every cancelStride visits.
func eliminatePass(ctx context.Context, fg *graph.Frozen, alive, term graph.Bits, terminals, order []int, identity bool, bsc *graph.BitScratch) error {
	n := fg.N()
	steps := len(order)
	if identity {
		steps = n
	}
	for i := 0; i < steps; i++ {
		if i&(cancelStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		v := i
		if !identity {
			v = order[i]
		}
		if v < 0 || v >= n || !alive.Has(v) || term.Has(v) {
			continue
		}
		alive.Clear(v)
		if !terminalsConnectedBits(fg, alive, term, terminals, bsc) {
			alive.Set(v)
		}
	}
	return nil
}

// renderCover restricts the alive mask to the terminals' connected
// component — nodes no order reached, or stranded after their turn, may
// survive outside it — and renders the spanning tree of what is left.
func renderCover(tr *trace.Trace, fg *graph.Frozen, alive graph.Bits, terminals []int, sc *frozenScratch) (Tree, error) {
	rsp := tr.StartSpan("solve.render")
	restrictToTerminalComponentBits(fg, alive, terminals, sc)
	t, err := spanningTreeBits(fg, alive, sc)
	rsp.End()
	return t, err
}

// eliminateFrozen runs one elimination pass over the terminals' component
// (flooded, or copied from the batch-planner Shared sh) and renders the
// cover: the shared body of EliminateOrderedFrozen and
// Algorithm2FrozenShared. identity selects the id-order pass.
func eliminateFrozen(ctx context.Context, fg *graph.Frozen, terminals, order []int, identity bool, sh *Shared) (Tree, error) {
	// Phase spans no-op on a traceless ctx (nil *Trace, zero SpanRef), so
	// the allocation pins and the hot benchmarks are untouched.
	tr := trace.FromContext(ctx)
	sc := getScratch(fg.N())
	defer sc.release()
	psp := tr.StartSpan("solve.probe")
	alive, err := componentAliveBits(fg, terminals, sh, sc, sc.alive)
	psp.End()
	if err != nil {
		return Tree{}, err
	}
	esp := tr.StartSpan("solve.eliminate")
	err = eliminatePass(ctx, fg, alive, termMask(sc, terminals), terminals, order, identity, sc.bit)
	esp.End()
	if err != nil {
		return Tree{}, err
	}
	return renderCover(tr, fg, alive, terminals, sc)
}

// EliminateOrderedFrozen runs the redundant-node elimination of
// Definition 11 in one pass: nodes are visited in the given order and
// removed whenever the terminals remain connected among themselves
// afterwards, each removal probe running the early-exit word-parallel
// connectivity search. Removing a node may strand a pendant fragment;
// stranded nodes are themselves removable and disappear when the pass
// reaches them, so the surviving subgraph is exactly the terminals'
// component — a *nonredundant* cover (Theorem 5's Step 1). One pass
// suffices: a kept node is a cut node separating the terminals, and
// deleting further nodes never creates new paths, so it stays one (this is
// also what keeps the algorithm at the O(|V|·|A|) of Theorem 5). The
// ordering determines WHICH nonredundant cover is reached — the substance
// of Definition 11 and Theorem 6.
//
// On a (6,2)-chordal bipartite graph every nonredundant cover is minimum
// (Lemma 5), so every ordering yields a minimum cover (Corollary 5); this
// is Algorithm 2 when the order is arbitrary. On general graphs the result
// is only guaranteed nonredundant. The context is checked every
// cancelStride removals.
func EliminateOrderedFrozen(ctx context.Context, fg *graph.Frozen, terminals, order []int) (Tree, error) {
	return eliminateFrozen(ctx, fg, terminals, order, false, nil)
}

// Algorithm2FrozenShared solves the Steiner problem on a (6,2)-chordal
// bipartite graph (Theorem 5): it eliminates redundant nodes in id order
// and returns a spanning tree of the resulting cover, which Lemma 5
// guarantees to be minimum. The id order is implicit — no per-query order
// slice is built. The precondition ((6,2)-chordality) is the caller's
// responsibility — use chordality.ClassifyFrozen or core.Connector; on
// other graphs the result is a nonredundant, possibly non-minimum, cover.
// Component masks come from the batch-planner Shared sh when it has them;
// a nil sh means nothing is precomputed.
func Algorithm2FrozenShared(ctx context.Context, fg *graph.Frozen, terminals []int, sh *Shared) (Tree, error) {
	return eliminateFrozen(ctx, fg, terminals, nil, true, sh)
}

// Algorithm1FrozenShared solves the pseudo-Steiner problem with respect to
// V2 (Definition 9) on a V1-chordal, V1-conformal bipartite graph, per
// Theorem 3:
//
//	Step 1: order the V2 nodes of the terminals' component as in Lemma 1 —
//	        the reverse of a running-intersection ordering of the edges of
//	        H¹G (obtained via the join tree, as Theorem 4 obtains it from
//	        Tarjan–Yannakakis restricted maximum cardinality search);
//	Step 2: scan that ordering once, removing v whenever the terminals
//	        remain connected afterwards;
//	Step 3: return a spanning tree of the surviving cover.
//
// The paper's Step 2 removes v together with Adj*(v), the nodes adjacent
// only to v. Removing v alone differs only by the non-terminal nodes of
// Adj*(v), which the removal leaves isolated: they lie on no terminal
// path, and Step 3's restriction to the terminals' component drops them.
// (A terminal in Adj*(v) is left isolated too, so with two or more
// terminals v stays either way; a lone terminal needs no other node.)
//
// The result is a tree over the terminals with the minimum possible number
// of V2 nodes. Total node count is NOT minimized (that problem is
// NP-complete on this class, Theorem 2); see Algorithm2FrozenShared and
// ExactFrozenShared.
//
// The elimination runs under an alive bitmask over the shared CSR arrays.
// The Lemma 1 ordering comes from bipartite.Frozen.Lemma1Order, which
// builds it once per component; the first query on a component pays that
// O(m²) build without context checks. Algorithm 1 verifies its own
// precondition: it returns ErrNotAlphaAcyclic when H¹ of the component is
// not α-acyclic. The context is checked every cancelStride elimination
// steps. Component masks come from the batch-planner Shared sh when it has
// them; a nil sh means nothing is precomputed.
func Algorithm1FrozenShared(ctx context.Context, fb *bipartite.Frozen, terminals []int, sh *Shared) (Tree, error) {
	return lemma1Frozen(ctx, fb, terminals, sh, nil)
}

// MinimumTreeFrozenShared answers a (6,2)-chordal scheme with a tree that
// is node-minimum and V2-minimum at once: one elimination pass over the
// Lemma 1 ordering W of the terminals' component, then over every V1
// node, and the spanning tree of what survives. The W phase is Algorithm 1
// and the V1 phase removes no V2 node, so the V2 count is Theorem 3's
// minimum; the pass leaves a nonredundant cover, which Lemma 5 makes
// node-minimum (the package documentation gives the proof). On other
// α-acyclic schemes only the V2 minimum holds.
//
// It reads the memoized ordering like Algorithm1FrozenShared, so a warm
// query builds no order slice and allocates only its result, and it
// returns ErrNotAlphaAcyclic, as Algorithm 1 does, when H¹ of the
// component is not α-acyclic — which no (6,2)-chordal scheme's is
// (Corollary 2 and Theorem 1). The context is checked every cancelStride
// elimination steps. Component masks come from the batch-planner Shared
// sh when it has them; a nil sh means nothing is precomputed.
func MinimumTreeFrozenShared(ctx context.Context, fb *bipartite.Frozen, terminals []int, sh *Shared) (Tree, error) {
	return lemma1Frozen(ctx, fb, terminals, sh, fb.V1())
}

// lemma1Frozen floods the terminals' component (or copies it from sh),
// eliminates over the component's Lemma 1 ordering W and then over then,
// and renders the cover: the shared body of Algorithm1FrozenShared (no
// then) and MinimumTreeFrozenShared (then is every V1 node).
func lemma1Frozen(ctx context.Context, fb *bipartite.Frozen, terminals []int, sh *Shared, then []int) (Tree, error) {
	tr := trace.FromContext(ctx)
	fg := fb.G()
	sc := getScratch(fg.N())
	defer sc.release()
	psp := tr.StartSpan("solve.probe")
	alive, err := componentAliveBits(fg, terminals, sh, sc, sc.alive)
	psp.End()
	if err != nil {
		return Tree{}, err
	}
	osp := tr.StartSpan("solve.order")
	w, ok := fb.Lemma1Order(alive)
	osp.End()
	if !ok {
		return Tree{}, ErrNotAlphaAcyclic
	}
	term := termMask(sc, terminals)
	esp := tr.StartSpan("solve.eliminate")
	err = eliminatePass(ctx, fg, alive, term, terminals, w, false, sc.bit)
	if err == nil {
		err = eliminatePass(ctx, fg, alive, term, terminals, then, false, sc.bit)
	}
	esp.End()
	if err != nil {
		return Tree{}, err
	}
	return renderCover(tr, fg, alive, terminals, sc)
}

// ExactFrozenShared solves the node-minimum Steiner problem exactly with
// the Dreyfus–Wagner dynamic program over terminal subsets, using the grow
// step of Erickson, Monma & Veinott (Math. Oper. Res. 1987). With unit
// edge weights a tree on t nodes has t−1 edges, so minimizing edges
// minimizes nodes. Complexity O(3^k·|C| + 2^k·(|C|+|A_C|)) for k terminals
// in a component C with |A_C| arcs — exponential in k, as Theorem 2's
// NP-completeness predicts for the general case; at most
// ExactTerminalLimit terminals are accepted.
//
// dp[S][v] is the fewest edges of a tree spanning S ∪ {v}, for S a set of
// non-root terminals. Per subset, the merge step sets dp[S][v] to the best
// split of S at v, and the grow step lowers it to f(v) = min_u dp[S][u] +
// d(u, v). One BFS does that: seed every node with its merged label, pop
// labels in nondecreasing order, each node once, and offer label+1 to the
// node's neighbours. No offer undercuts f, since f(v) ≤ f(u)+1 along every
// arc. And the neighbour p of v on a shortest path from the u attaining
// f(v) has f(p) = f(v)−1, so by induction p is popped at f(p) and offers v
// its f(v). Seeds are counting-sorted by label and merged with the FIFO of
// lowered labels, which stays sorted because each offer is the popped
// label plus one. No distance row is built; the offering arcs, recorded in
// choice, rebuild the paths.
//
// dp and choice are flat int32 blocks indexed by subset and component-local
// id, 2^(k−1)·|C| words each, beside O(n) words of masks and the id map;
// all come from the pool, so a warm query allocates only its result. The
// context is checked once per terminal subset, so a deadline is honored
// well before the exponential loop completes. Component masks come from
// the batch-planner Shared sh when it has them; a nil sh means nothing is
// precomputed.
func ExactFrozenShared(ctx context.Context, fg *graph.Frozen, terminals []int, sh *Shared) (Tree, error) {
	sc := getScratch(fg.N())
	defer sc.release()
	ts := append(sc.ints2[:0], terminals...) // the terminal set, ascending
	slices.Sort(ts)
	ts = slices.Compact(ts)
	sc.ints2 = ts
	switch {
	case len(ts) == 0:
		return Tree{}, ErrEmptyTerminals
	case len(ts) == 1:
		return Tree{Nodes: intset.Set{ts[0]}}, nil
	case len(ts) > ExactTerminalLimit:
		return Tree{}, fmt.Errorf("steiner: %d terminals: %w", len(ts), ErrTooManyTerminals)
	}
	if err := ctx.Err(); err != nil {
		return Tree{}, err
	}
	tr := trace.FromContext(ctx)
	psp := tr.StartSpan("solve.probe")
	comp, err := componentAliveBits(fg, terminals, sh, sc, sc.comp)
	psp.End()
	if err != nil {
		return Tree{}, err
	}
	// Component-local ids follow node ids, so the merge's and the relaxation's
	// sweeps — and therefore tie-breaking — follow node ids.
	members := comp.AppendOnes(sc.ints[:0])
	sc.ints = members
	c := len(members)
	local := grow32(sc.local, fg.N())
	sc.local = local
	for i, u := range members {
		local[u] = int32(i)
	}

	k := len(ts) - 1 // subsets range over ts[0..k-1]; ts[k] is the root
	size := 1 << uint(k)
	const inf = math.MaxInt32 / 2 // inf+inf still fits in an int32
	dsp := tr.StartSpan("solve.dp")
	dsp.AnnotateInt("subsets", int64(size))
	// Row s of dp and choice holds subset s's labels at s*c. choice is −1−u
	// when the label came from neighbour u, a split sub of s when it came
	// from the merge, and 0 at a singleton's own terminal.
	dp := grow32(sc.dp, size*c)
	sc.dp = dp
	choice := grow32(sc.choice, size*c)
	sc.choice = choice
	for s := 1; s < size; s++ {
		if err := ctx.Err(); err != nil {
			dsp.End()
			return Tree{}, err
		}
		row, ch := dp[s*c:(s+1)*c], choice[s*c:(s+1)*c]
		for v := range row {
			row[v] = inf
		}
		if s&(s-1) == 0 {
			t := local[ts[bits.TrailingZeros(uint(s))]]
			row[t], ch[t] = 0, 0
		}
		// Merge step: each unordered split of s once, larger part first, one
		// sweep over two contiguous rows per split. Each node sees the splits
		// in the same order, so the first best split wins as it always has.
		for sub := (s - 1) & s; sub >= s&^sub; sub = (sub - 1) & s {
			a, b := dp[sub*c:(sub+1)*c], dp[(s&^sub)*c:(s&^sub+1)*c]
			for v := range row {
				if x := a[v] + b[v]; x < row[v] {
					row[v], ch[v] = x, int32(sub)
				}
			}
		}
		growLabels(fg, members, local, row, ch, sc)
	}
	full := size - 1
	root := local[ts[k]]
	if dp[full*c+int(root)] >= inf {
		dsp.End()
		return Tree{}, ErrDisconnectedTerminals
	}
	dsp.End()

	// Reconstruct the node set into the alive mask, walking choice from
	// (full, root): an arc moves to the neighbour, a split continues with
	// one part and stacks the other. Pending parts are disjoint and nonempty,
	// so fewer than k are stacked at once.
	rsp := tr.StartSpan("solve.render")
	nodes := sc.alive
	nodes.Reset()
	var stack [ExactTerminalLimit]struct{ s, v int32 }
	stack[0].s, stack[0].v = int32(full), root
	for top := 1; top > 0; {
		top--
		s, v := stack[top].s, stack[top].v
		for {
			nodes.Set(members[v])
			ch := choice[int(s)*c+int(v)]
			if ch < 0 {
				v = -1 - ch
				continue
			}
			if ch == 0 {
				break // a singleton's terminal
			}
			stack[top].s, stack[top].v = s&^ch, v
			top++
			s = ch
		}
	}
	t, err := spanningTreeBits(fg, nodes, sc)
	rsp.End()
	if err != nil {
		return Tree{}, err
	}
	if got, want := t.Nodes.Len(), int(dp[full*c+int(root)])+1; got > want {
		return Tree{}, fmt.Errorf("steiner: reconstruction produced %d nodes for cost %d (internal error)", got, want-1)
	}
	return t, nil
}

// growLabels is the grow step of ExactFrozenShared over one subset's row
// of the component's labels: it lowers each label to min_u row[u] + d(u, v),
// setting ch[v] = −1−u for the neighbour u that lowered it. Labels are
// popped in nondecreasing order. The seeds are counting-sorted into one
// bucket per label from lo, the smallest, to lo+|C|−1; a larger seed is
// lowered anyway, since no final label exceeds lo+|C|−1. Each bucket is
// followed by the FIFO's labels of the same value, pushed while the bucket
// before was popped, and a seed lowered since it was sorted is skipped.
func growLabels(fg *graph.Frozen, members []int, local, row, ch []int32, sc *frozenScratch) {
	c := int32(len(row))
	lo := row[0]
	for _, x := range row {
		lo = min(lo, x)
	}
	end := grow32(sc.bucket, int(c)+1) // end[d]: one past label lo+d's seeds
	seeds := grow32(sc.seeds, int(c))
	sc.bucket, sc.seeds = end, seeds
	clear(end)
	for _, x := range row {
		if d := x - lo; d < c {
			end[d+1]++
		}
	}
	for d := int32(1); d <= c; d++ {
		end[d] += end[d-1]
	}
	for v, x := range row {
		if d := x - lo; d < c {
			seeds[end[d]] = int32(v)
			end[d]++
		}
	}
	queue := sc.queue[:0]
	head, next := 0, int32(0)
	for d := int32(0); d < c; d++ {
		label := lo + d
		for i := next; ; i++ {
			var u int32
			if i < end[d] {
				if u = seeds[i]; row[u] != label {
					continue
				}
			} else if head < len(queue) && row[queue[head]] == label {
				u = queue[head]
				head++
			} else {
				break
			}
			for _, w := range fg.Neighbors(members[u]) {
				if v := local[w]; label+1 < row[v] {
					row[v], ch[v] = label+1, -1-u
					queue = append(queue, v)
				}
			}
		}
		next = end[d]
	}
	sc.queue = queue[:0]
}

// ApproximateFrozenShared computes a Steiner tree with the classical
// metric-closure heuristic: build the complete graph over the terminals
// weighted by shortest-path distance, take a minimum spanning tree of it,
// expand each MST edge into an actual shortest path, and prune redundant
// nodes. The node count is at most 2× optimal (the usual 2-approximation
// bound carries over to node counts on unit weights, up to the additive
// terminal count). This is the fallback the library uses where the paper
// proves the problem NP-hard and no chordality condition rescues it.
//
// Terminal distance rows are pooled (or copied from the batch-planner
// Shared sh when it has them; a nil sh means nothing is precomputed), and
// the final pruning pass runs the word-parallel cover probe. The context
// is checked per terminal BFS row and every cancelStride pruning probes.
func ApproximateFrozenShared(ctx context.Context, fg *graph.Frozen, terminals []int, sh *Shared) (Tree, error) {
	tr := trace.FromContext(ctx)
	ts := intset.FromSlice(terminals)
	n := fg.N()
	sc := getScratch(n)
	defer sc.release()
	psp := tr.StartSpan("solve.probe")
	_, err := componentAliveBits(fg, terminals, sh, sc, sc.comp)
	psp.End()
	if err != nil {
		return Tree{}, err
	}
	if ts.Len() == 1 {
		return Tree{Nodes: ts.Clone()}, nil
	}
	k := ts.Len()
	rowsp := tr.StartSpan("solve.rows")
	rowsp.AnnotateInt("rows", int64(k))
	dist := grow32(sc.dist, k*n)
	sc.dist = dist
	for i, p := range ts {
		if err := ctx.Err(); err != nil {
			rowsp.End()
			return Tree{}, err
		}
		if row := sh.row(p); row != nil {
			copy(dist[i*n:(i+1)*n], row)
		} else {
			fg.BFSDistancesBits(p, nil, dist[i*n:(i+1)*n], sc.bit)
		}
	}
	rowsp.End()
	// Prim MST over the terminal metric closure; the in-tree set is a bit
	// mask over terminal indices, best/bestTo pooled flat arrays.
	msp := tr.StartSpan("solve.mst")
	inTree := sc.term
	inTree.Reset()
	best := grow32(sc.local, k)
	sc.local = best
	if cap(sc.ints2) < k {
		sc.ints2 = make([]int, k)
	}
	bestTo := sc.ints2[:k]
	for i := range best {
		best[i] = 1 << 30
	}
	best[0] = 0
	bestTo[0] = -1
	nodes := sc.alive
	nodes.Reset()
	for picked := 0; picked < k; picked++ {
		sel := -1
		for i := 0; i < k; i++ {
			if !inTree.Has(i) && (sel == -1 || best[i] < best[sel]) {
				sel = i
			}
		}
		inTree.Set(sel)
		if bestTo[sel] >= 0 {
			for _, v := range fg.ShortestPath(ts[bestTo[sel]], ts[sel]) {
				nodes.Set(v)
			}
		} else {
			nodes.Set(ts[sel])
		}
		for i := 0; i < k; i++ {
			if !inTree.Has(i) && dist[sel*n+ts[i]] >= 0 && dist[sel*n+ts[i]] < best[i] {
				best[i] = dist[sel*n+ts[i]]
				bestTo[i] = sel
			}
		}
	}
	msp.End()
	// Prune: drop nodes whose removal keeps a cover (single pass, largest
	// ids first for determinism; AppendOnes yields ascending ids).
	rsp := tr.StartSpan("solve.render")
	alive := nodes
	order := alive.AppendOnes(sc.ints[:0])
	sc.ints = order
	term := termMask(sc, terminals) // reclaims the Prim in-tree mask
	for i := len(order) - 1; i >= 0; i-- {
		if i&(cancelStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				rsp.End()
				return Tree{}, err
			}
		}
		v := order[i]
		if ts.Contains(v) {
			continue
		}
		alive.Clear(v)
		if !coversBits(fg, alive, term, terminals, sc.bit) {
			alive.Set(v)
		}
	}
	t, err := spanningTreeBits(fg, alive, sc)
	rsp.End()
	return t, err
}
