// Package steiner implements Section 3 of the paper: minimum covers and
// Steiner/pseudo-Steiner trees on (bipartite) graphs.
//
//   - Algorithm 2 (Theorem 5): node-minimum Steiner trees on (6,2)-chordal
//     bipartite graphs by single-pass redundant-node elimination, in
//     O(|V|·|A|); the same elimination pass parameterized by an arbitrary
//     ordering implements the "good ordering" machinery of Definition 11 and
//     Corollary 5.
//   - Algorithm 1 (Theorem 3): pseudo-Steiner trees with respect to V2 on
//     V1-chordal, V1-conformal bipartite graphs, via the running-intersection
//     elimination ordering of Lemma 1. The ordering belongs to the scheme's
//     component, not to the query: Algorithm1FrozenShared reads it from
//     bipartite.Frozen.Lemma1Order, which builds it once per connected
//     component (with its α-acyclicity verdict) and keeps it for the life
//     of the frozen view, so a warm query only floods the component, runs
//     the elimination pass and renders the tree.
//   - Both guarantees at once on (6,2)-chordal bipartite graphs:
//     MinimumTreeFrozenShared, one elimination pass that is node-minimum
//     and V2-minimum (see "One pass, both guarantees" below).
//   - Exact baselines: the Dreyfus–Wagner dynamic program (exponential in the
//     number of terminals) for the node-minimum Steiner problem.
//   - A metric-closure 2-approximation heuristic, used as the fallback where
//     the paper proves NP-hardness.
//   - The paper's two NP-hardness reductions (Theorem 2's X3C gadget, Fig 6,
//     and the CSPC gadget of the remarks after Corollary 4, Fig 9).
//
// # One pass, both guarantees
//
// Core answers every (6,2)-chordal query with MinimumTreeFrozenShared: one
// elimination pass over Lemma 1's ordering W of the terminals' component,
// then over every V1 node. Its tree is node-minimum and V2-minimum at
// once:
//
//  1. (6,2)-chordal schemes are V1-chordal and V1-conformal (Corollary 2),
//     so Theorem 3 applies: the W phase is Algorithm 1, and it leaves a
//     cover with the minimum number of V2 nodes.
//  2. The V1 phase removes no V2 node, and the final restriction to the
//     terminals' component only drops nodes, so the V2 count cannot rise
//     above that minimum.
//  3. The pass visits every node of the component once, and deleting nodes
//     never creates a path: a node kept on its turn separates the
//     terminals, and still does at the end. So the result is a
//     nonredundant cover, which Lemma 5 makes node-minimum.
//
// Algorithms 1 and 2, this pass and the ordering ablation share one
// elimination loop; Algorithm1FrozenShared explains why removing v alone,
// not v together with Adj*(v), keeps Algorithm 1's answers.
//
// Every solver runs on the immutable graph.Frozen / bipartite.Frozen view,
// takes a context.Context first, and has one entry point:
// Algorithm2FrozenShared, Algorithm1FrozenShared, MinimumTreeFrozenShared,
// ExactFrozenShared, ApproximateFrozenShared and EliminateOrderedFrozen,
// plus the ablations
// Algorithm1WithOrder and EliminateOrderedStrict. Connectivity probes and
// BFS go through the bit-parallel wave kernels when the view carries a
// compiled adjacency matrix (falling back to CSR walks otherwise), and all
// per-query scratch — alive/terminal masks, the flat Dreyfus–Wagner
// tables and their BFS buckets, the heuristic's terminal distance rows —
// is drawn from a sync.Pool. So a warm Algorithm 1, Algorithm 2,
// MinimumTreeFrozenShared or exact query allocates only its result; the
// heuristic still allocates one fg.ShortestPath per MST edge. The exact
// answers — node sets, edge order, errors — are pinned case by case in
// testdata/answers.golden, and internal/reference holds the brute-force
// oracles the tests check the guarantees against. RankedCovers, which
// enumerates interpretations, runs on the mutable graph.
//
// Shared captures batch-level reusable work (terminal component masks and
// BFS distance rows): build one with NewShared + Precompute, then pass it
// to the *FrozenShared entry points from any number of concurrent
// queries. A nil *Shared is always valid and means "no precomputed work".
package steiner
