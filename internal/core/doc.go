// Package core assembles the paper's results into the system its
// introduction motivates: a logically-independent connection service. A
// Connector classifies a conceptual scheme (a bipartite graph) once against
// the chordality taxonomy of Section 2, then answers minimal-connection
// queries (Section 3) with the strongest algorithm the class admits:
//
//	(6,2)-chordal                 → Algorithm 2: node-minimum Steiner tree,
//	                                polynomial (Theorem 5), eliminating in
//	                                Lemma 1's order so that it minimizes
//	                                V2 nodes too (Theorem 3)
//	V1-chordal ∧ V1-conformal     → Algorithm 1: tree minimizing auxiliary
//	                                relations (V2 nodes), polynomial
//	                                (Theorems 3–4); total node count is
//	                                NP-complete here (Theorem 2)
//	otherwise                     → exact Dreyfus–Wagner when the terminal
//	                                count is small, else the 2-approximation
//
// Connector also enumerates ranked alternative interpretations of a query
// (the interactive-disambiguation loop sketched in the introduction).
//
// # The v2 query model
//
// Every query entry point takes a context.Context first and functional
// options last:
//
//	conn := core.New(b, core.WithExactLimit(10))
//	answer, err := conn.Connect(ctx, terminals, core.WithInterpretations(3, 5))
//
// The context is plumbed into the solvers' hot loops — the exponential
// Dreyfus–Wagner program checks it per terminal subset, the elimination
// passes every few removals — so a deadline bounds tail latency rather
// than being noticed after the fact; on expiry Connect returns
// context.DeadlineExceeded. Terminals are validated at the boundary
// (ErrEmptyQuery, ErrInvalidTerminal, ErrTooManyTerminals in errors.go)
// before any solver runs.
//
// # Frozen-view serving architecture
//
// New compiles the scheme once: it freezes the bipartite graph into the
// immutable CSR view of internal/graph and internal/bipartite, classifies
// that view (chordality.ClassifyFrozen), and answers every Connect on the
// frozen-path solvers of internal/steiner. Because the frozen view and the
// classification never change, a Connector is safe for unsynchronized
// concurrent Connect calls — the scheme passed to New must simply not be
// mutated afterwards (the classify-once contract).
//
// Service wraps a Connector for query-many workloads (see service.go), and
// Registry (registry.go) serves many named schemes from one process with
// atomic compile-and-swap updates.
//
// # The sharded answer cache
//
// Service fronts its Connector with an answer cache (internal/cache)
// keyed on the canonical terminal set plus the answer-changing query
// options, with in-flight deduplication: of any number of identical
// queries arriving concurrently, one computes and the rest wait on its
// entry. The cache is split into shards selected by a hash of the key —
// WithCacheShards tunes the count (default GOMAXPROCS rounded up to a
// power of two, at most 64). A hit takes no lock: it probes the shard's
// index lock-free. Misses, fills and removals serialize on their shard's
// mutex and update the index in place. When a shard is full, eviction is
// cost-aware sampled recency: it drops the entry whose recency stamp plus
// a bonus for its recorded solve time is lowest, which is plain LRU only
// while every recorded cost is under ~0.5 ms. Answers are identical at
// any shard count; only which entry a full shard evicts changes.
// WithCacheSize capacity is split across shards by ceiling division with
// a floor of one entry per shard, and Stats reports aggregate counters
// plus per-shard occupancy (CacheStats.ShardEntries).
package core
