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
//   - the Dreyfus–Wagner tables are flat int32 blocks indexed s*n+v, with
//     BFS distance rows built only for the terminals' component;
//   - every per-query buffer (bit scratch, alive/terminal masks, distance
//     rows, DP tables, spanning-tree queue) comes from a sync.Pool, so a
//     steady-state Algorithm 1 or 2 query on a warm pool allocates only its
//     result: the node and edge slices, each sized exactly once (see
//     TestAlgorithm2FrozenWarmAllocs).
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
	queue  []int32           // spanning-tree FIFO
	ints   []int             // member / order / removed-set list
	ints2  []int             // second int list (Prim bestTo)
	rowOf  []int32           // Exact: node id → distance-row index
	dist   []int32           // flat BFS distance rows, row-major
	dp     []int32           // Exact: flat DP table, dp[s*n+v]
	choice []int32           // Exact: flat reconstruction table
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
// the Dreyfus–Wagner dynamic program over terminal subsets. With unit edge
// weights a tree on t nodes has t−1 edges, so minimizing edges minimizes
// nodes. Complexity O(3^k·|C| + 2^k·|C|²) for k terminals in a component
// C — exponential in k, as Theorem 2's NP-completeness predicts for the
// general case; at most ExactTerminalLimit terminals are accepted.
//
// The state is flat int32: the BFS distance rows are built only for the
// nodes of the terminals' component C (an intermediate Steiner point of a
// connected cover can never leave it), and the dp/choice tables are two
// contiguous blocks indexed s·n+v, so for k+1 terminals peak memory is
// (|C| + 2·2^k)·n int32 words. The context is checked before the distance
// rows are built, per cancelStride rows, and once per terminal subset of
// the DP (each subset costs O(|C|²) work, so a deadline is honored well
// before the exponential loop completes). Component masks come from the
// batch-planner Shared sh when it has them; a nil sh means nothing is
// precomputed.
func ExactFrozenShared(ctx context.Context, fg *graph.Frozen, terminals []int, sh *Shared) (Tree, error) {
	ts := intset.FromSlice(terminals)
	if ts.Len() == 0 {
		return Tree{}, ErrEmptyTerminals
	}
	if ts.Len() == 1 {
		return Tree{Nodes: ts.Clone()}, nil
	}
	if ts.Len() > ExactTerminalLimit {
		return Tree{}, fmt.Errorf("steiner: %d terminals: %w", ts.Len(), ErrTooManyTerminals)
	}
	if err := ctx.Err(); err != nil {
		return Tree{}, err
	}
	tr := trace.FromContext(ctx)
	n := fg.N()
	sc := getScratch(n)
	defer sc.release()
	psp := tr.StartSpan("solve.probe")
	comp, err := componentAliveBits(fg, terminals, sh, sc, sc.comp)
	psp.End()
	if err != nil {
		return Tree{}, err
	}
	// Distance rows, one per component member, restricted to the component:
	// distances between members are unaffected (shortest paths cannot leave
	// a component) and everything else is -1 on both paths.
	rowsp := tr.StartSpan("solve.rows")
	members := comp.AppendOnes(sc.ints[:0])
	sc.ints = members
	c := len(members)
	rowsp.AnnotateInt("rows", int64(c))
	rowOf := grow32(sc.rowOf, n)
	sc.rowOf = rowOf
	for i, u := range members {
		rowOf[u] = int32(i)
	}
	dist := grow32(sc.dist, c*n)
	sc.dist = dist
	for i, u := range members {
		if i&(cancelStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				rowsp.End()
				return Tree{}, err
			}
		}
		fg.BFSDistancesBits(u, comp, dist[i*n:(i+1)*n], sc.bit)
	}
	rowsp.End()

	k := ts.Len() - 1 // subsets range over ts[0..k-1]; ts[k] is the root
	root := ts[k]
	const inf = math.MaxInt32
	size := 1 << uint(k)
	dsp := tr.StartSpan("solve.dp")
	dsp.AnnotateInt("subsets", int64(size))
	// dp and choice are flat blocks, entry (s, v) at s*n+v. Only member
	// columns are ever read or written (a state is finite only for nodes of
	// the terminals' component), so only those are initialized; choice needs
	// no initialization at all — it is read only for finite composite dp
	// states, and every write of such a state writes its choice too.
	dp := grow32(sc.dp, size*n)
	sc.dp = dp
	choice := grow32(sc.choice, size*n)
	sc.choice = choice
	for s := 1; s < size; s++ {
		b := s * n
		for _, v := range members {
			dp[b+v] = inf
		}
	}
	for i := 0; i < k; i++ {
		trow := dist[int(rowOf[ts[i]])*n:]
		b := (1 << uint(i)) * n
		for _, v := range members {
			if d := trow[v]; d >= 0 {
				dp[b+v] = d
			}
		}
	}
	for s := 1; s < size; s++ {
		if s&(s-1) == 0 {
			continue // singleton: base case done
		}
		if err := ctx.Err(); err != nil {
			dsp.End()
			return Tree{}, err
		}
		b := s * n
		// Merge step: split S at v. Members ascend in id order, so updates
		// — and therefore tie-breaking — follow node ids.
		for _, v := range members {
			for sub := (s - 1) & s; sub > 0; sub = (sub - 1) & s {
				if sub < s-sub {
					break // each unordered split once
				}
				if dp[sub*n+v] < inf && dp[(s&^sub)*n+v] < inf {
					if c := dp[sub*n+v] + dp[(s&^sub)*n+v]; c < dp[b+v] {
						dp[b+v] = c
						choice[b+v] = int32(sub)
					}
				}
			}
		}
		// Grow step: attach a path u..v, relaxing over the distance rows.
		for _, v := range members {
			for ui, u := range members {
				if u == v || dp[b+u] >= inf {
					continue
				}
				d := dist[ui*n+v]
				if d < 0 {
					continue
				}
				if c := dp[b+u] + d; c < dp[b+v] {
					dp[b+v] = c
					choice[b+v] = int32(-1 - u)
				}
			}
		}
	}
	full := size - 1
	if dp[full*n+root] >= inf {
		dsp.End()
		return Tree{}, ErrDisconnectedTerminals
	}
	dsp.End()

	// Reconstruct the node set into the alive mask.
	rsp := tr.StartSpan("solve.render")
	nodes := sc.alive
	nodes.Reset()
	var rec func(s int, v int)
	rec = func(s int, v int) {
		nodes.Set(v)
		if s&(s-1) == 0 {
			var ti int
			for i := 0; i < k; i++ {
				if s == 1<<uint(i) {
					ti = ts[i]
				}
			}
			for _, x := range fg.ShortestPath(ti, v) {
				nodes.Set(x)
			}
			return
		}
		ch := choice[s*n+v]
		if ch < 0 {
			u := int(-1 - ch)
			for _, x := range fg.ShortestPath(u, v) {
				nodes.Set(x)
			}
			rec(s, u)
			return
		}
		rec(int(ch), v)
		rec(s&^int(ch), v)
	}
	rec(full, root)

	t, err := spanningTreeBits(fg, nodes, sc)
	rsp.End()
	if err != nil {
		return Tree{}, err
	}
	if got, want := t.Nodes.Len(), int(dp[full*n+root])+1; got > want {
		return Tree{}, fmt.Errorf("steiner: reconstruction produced %d nodes for cost %d (internal error)", got, want-1)
	}
	return t, nil
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
	best := grow32(sc.rowOf, k)
	sc.rowOf = best
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
