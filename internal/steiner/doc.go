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
//     component, not to the query: the frozen port reads it from
//     bipartite.Frozen.Lemma1Order, which builds it once per connected
//     component (with its α-acyclicity verdict) and keeps it for the life
//     of the frozen view, so a warm query only floods the component, runs
//     the elimination pass and renders the tree.
//   - Exact baselines: the Dreyfus–Wagner dynamic program (exponential in the
//     number of terminals) for the node-minimum Steiner problem.
//   - A metric-closure 2-approximation heuristic, used as the fallback where
//     the paper proves NP-hardness.
//   - The paper's two NP-hardness reductions (Theorem 2's X3C gadget, Fig 6,
//     and the CSPC gadget of the remarks after Corollary 4, Fig 9).
//
// Each solver has a frozen port (Algorithm2Frozen, ExactFrozen, ...) that
// runs on the immutable graph.Frozen view: connectivity probes and BFS go
// through the bit-parallel wave kernels when the view carries a compiled
// adjacency matrix (falling back to CSR walks otherwise), and all
// per-query scratch — alive/terminal masks, distance rows, the flat
// Dreyfus–Wagner tables — is drawn from a sync.Pool. The *Into variants
// (Algorithm2FrozenInto, ...) additionally reuse the caller's Tree
// capacity, making steady-state queries allocation-free. Frozen answers
// are bit-for-bit identical to the mutable path, errors included.
//
// Shared captures batch-level reusable work (terminal component masks and
// BFS distance rows): build one with NewShared + Precompute, then pass it
// to the *FrozenShared entry points from any number of concurrent
// queries. A nil *Shared is always valid and means "no precomputed work".
package steiner
