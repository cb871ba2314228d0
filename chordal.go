// Package chordal is the public facade of the reproduction of Ausiello,
// D'Atri and Moscarini, "Chordality Properties on Graphs and Minimal
// Conceptual Connections in Semantic Data Models" (PODS 1985 / JCSS 33,
// 1986).
//
// The library decides the paper's bipartite chordality classes and
// hypergraph acyclicity degrees, and answers minimal-connection (Steiner /
// pseudo-Steiner) queries with the strongest algorithm each class admits.
//
// # The v2 query API
//
// Open compiles a scheme once (freeze into an immutable CSR view +
// classify, Theorem 1) and returns a Service answering concurrent,
// context-aware queries:
//
//	b := chordal.NewBipartite()                // build a scheme graph
//	a := b.AddV1("attribute")                  // V1 = attributes
//	r := b.AddV2("relation")                   // V2 = relation schemes
//	b.AddEdge(a, r)
//	svc := chordal.Open(b, chordal.WithWorkers(8), chordal.WithCacheSize(4096))
//	answer, err := svc.Connect(ctx, []int{a, r})
//
// Every query takes a context.Context first: deadlines and cancellation
// are checked inside the solvers' hot loops (including the exponential
// Dreyfus–Wagner fallback), so Connect returns context.DeadlineExceeded
// promptly instead of finishing a doomed search. Per-query functional
// options tune one call without touching the compiled scheme:
//
//	svc.Connect(ctx, terms,
//	    chordal.WithMethod(chordal.MethodExact),  // force a solver
//	    chordal.WithQueryExactLimit(8),           // exact/heuristic cutoff
//	    chordal.WithInterpretations(3, 5),        // ranked alternatives
//	    chordal.WithCacheBypass())                // skip the answer cache
//
// Terminals are validated at the API boundary; failures are typed and
// errors.Is-testable: ErrEmptyQuery, ErrInvalidTerminal,
// ErrTooManyTerminals, ErrDisconnectedTerminals, ErrNotAlphaAcyclic,
// context.Canceled, context.DeadlineExceeded.
//
// Batches fan out over a bounded worker pool with an answer cache keyed on
// the canonical terminal set plus the answer-changing options:
//
//	results := svc.ConnectBatch(ctx, queries)  // answers in query order
//
// The cache (internal/cache) is split into shards selected by a hash of
// the canonical key. A hit takes no lock: it probes the shard's index of
// atomic slots, and refreshes the entry's recency with an atomic stamp.
// Misses and fills serialize on their shard's mutex and update the index
// in place. When a shard is full, eviction weighs sampled
// recency against the recorded cost of recomputing each entry, so an
// expensive exact answer outlives a cheap one seen as recently.
// WithCacheShards tunes the shard count (default GOMAXPROCS rounded up to
// a power of two, max 64); Service.Stats reports per-shard occupancy
// alongside the aggregate counters.
//
// A Registry serves many named schemes from one process, with atomic
// compile-and-swap updates (in-flight queries finish on the old frozen
// epoch; new queries see the new one):
//
//	reg := chordal.NewRegistry()
//	reg.Set("library", b)                      // compile + install
//	conn, err := reg.Connect(ctx, "library", terms)
//
// The Registry can also be served over HTTP to other processes —
// internal/httpd speaks a JSON protocol reusing this exact contract
// (typed errors become status codes, timeout_ms becomes a ctx deadline),
// started via `chordalctl -serve :8080 -registry name=file,...`; see
// internal/README.md for endpoints and examples/httpclient for a client.
// Live admin endpoints (GET /v1/schemes/{name}/snapshot, PUT and DELETE
// /v1/schemes/{name}) let a running server be populated, snapshotted and
// pruned without a restart.
//
// # Persistent compiled schemes
//
// Compiling is Freeze+Classify; both are polynomial but neither is free,
// and a Registry holding thousands of schemes should not redo them on
// every boot. A compiled epoch serializes to a versioned, checksummed
// binary snapshot (internal/snapshot; `chordalctl -compile out.snap`)
// whose hot sections decode zero-copy from an mmap-able buffer:
//
//	svc := chordal.Open(b)
//	var buf bytes.Buffer
//	_ = svc.SaveSnapshot(&buf)                 // persist the epoch
//	snap, _ := chordal.DecodeSnapshot(buf.Bytes())
//	svc2 := chordal.OpenSnapshot(snap)         // boot: no Freeze, no Classify
//
// A loaded epoch answers bit-for-bit like a live compile and installs into
// a Registry with the same atomic swap semantics (Registry.LoadSnapshot /
// SaveSnapshot). Damaged files fail with typed errors: ErrNotSnapshot,
// ErrSnapshotVersion, ErrSnapshotChecksum, ErrSnapshotCorrupt.
//
// Lower-level entry points remain for direct use: NewConnector for a
// cache-less query answerer, Freeze/FreezeGraph to share a compiled view
// across goroutines, Classify/ClassifyFrozen for the taxonomy alone. A
// single Section 3 solver is one forced method away:
//
//	conn := chordal.NewConnector(b)
//	answer, err := conn.Connect(ctx, terms, chordal.WithMethod(chordal.MethodAlgorithm1))
//
// MethodAlgorithm2 (Theorem 5), MethodAlgorithm1 (Theorems 3–4),
// MethodExact (Dreyfus–Wagner) and MethodHeuristic (the metric-closure
// 2-approximation) each run one solver of internal/steiner.
//
// Subsystem map (all within this module; see internal/README.md):
//
//	internal/graph       graphs, traversal, covers; Freeze → immutable CSR
//	                     view (Frozen) safe for concurrent readers, with
//	                     the word-parallel bit kernels the solvers run on
//	internal/bipartite   (V1,V2) graphs ⇄ hypergraphs (Definition 2);
//	                     frozen bipartite view (partition over the CSR)
//	                     and its per-component Lemma 1 orderings
//	internal/hypergraph  dual, primal, GYO, Berge/γ/β/α recognizers
//	internal/chordality  (4,1)/(6,2)/(6,1)/Vi-chordality recognizers,
//	                     mutable and frozen paths
//	internal/steiner     Algorithms 1–2, exact and heuristic baselines,
//	                     all on the frozen view and context-aware, the
//	                     ranked interpretations, the X3C and CSPC
//	                     hardness gadgets
//	internal/reference   brute-force oracles the solvers are tested
//	                     against
//	internal/core        the v2 query layer: validation, typed errors,
//	                     options, dispatch, ranking, the cached Service,
//	                     the multi-tenant Registry
//	internal/snapshot    persistent compiled epochs: the versioned binary
//	                     catalog format, zero-copy decode, mmap open
//	internal/relational  relations, joins, semijoins, Yannakakis
//	internal/schema      relational schemes as hypergraphs
//	internal/ur          universal-relation interface
//	internal/er          entity–relationship layer (Fig 1)
//	internal/experiments the E-* reproduction tables (see EXPERIMENTS.md)
//
// The type aliases below expose the main entry points under one import for
// use inside this module (internal packages are not importable from other
// modules; vendor the tree or lift packages out of internal/ to reuse them
// elsewhere).
package chordal

import (
	"repro/internal/bipartite"
	"repro/internal/chordality"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hypergraph"
	"repro/internal/snapshot"
	"repro/internal/steiner"
)

// Core aliases.
type (
	// Graph is an undirected graph (internal/graph).
	Graph = graph.Graph
	// Bipartite is a bipartite graph with an explicit (V1, V2) partition.
	Bipartite = bipartite.Graph
	// Hypergraph is a hypergraph with duplicate edges allowed.
	Hypergraph = hypergraph.Hypergraph
	// Degree is a hypergraph acyclicity degree (Berge/γ/β/α/cyclic).
	Degree = hypergraph.Degree
	// Class is a bipartite chordality classification.
	Class = chordality.Class
	// Connector dispatches minimal-connection queries by classification.
	Connector = core.Connector
	// Connection is an answered query.
	Connection = core.Connection
	// Interpretation is one ranked alternative reading of a query.
	Interpretation = core.Interpretation
	// Method identifies which algorithm answers a query (MethodAuto,
	// MethodAlgorithm2, MethodAlgorithm1, MethodExact, MethodHeuristic).
	Method = core.Method
	// Tree is a connection tree (cover node set + spanning tree edges).
	Tree = steiner.Tree
	// FrozenGraph is the immutable CSR view of a Graph.
	FrozenGraph = graph.Frozen
	// FrozenBipartite is the immutable compiled view of a Bipartite.
	FrozenBipartite = bipartite.Frozen
	// Service serves cached, concurrent connection queries over one scheme.
	Service = core.Service
	// Registry is a named, multi-tenant catalog of compiled schemes with
	// atomic compile-and-swap updates.
	Registry = core.Registry
	// BatchResult is one answer of Service.ConnectBatch.
	BatchResult = core.BatchResult
	// CacheStats is a snapshot of a Service's answer cache.
	CacheStats = core.CacheStats
	// Option configures Open/NewConnector/NewRegistry-installed schemes.
	Option = core.Option
	// QueryOption configures a single Connect/ConnectBatch call.
	QueryOption = core.QueryOption
	// Snapshot is a decoded persistent compiled-scheme epoch.
	Snapshot = snapshot.Snapshot
	// MappedSnapshot is a snapshot backed by an mmap-ed catalog file.
	MappedSnapshot = snapshot.Mapped
)

// Methods, re-exported for WithMethod.
const (
	MethodAuto       = core.MethodAuto
	MethodAlgorithm2 = core.MethodAlgorithm2
	MethodAlgorithm1 = core.MethodAlgorithm1
	MethodExact      = core.MethodExact
	MethodHeuristic  = core.MethodHeuristic
)

// Typed query errors, re-exported for errors.Is at the facade.
var (
	ErrEmptyQuery            = core.ErrEmptyQuery
	ErrInvalidTerminal       = core.ErrInvalidTerminal
	ErrTooManyTerminals      = core.ErrTooManyTerminals
	ErrUnknownScheme         = core.ErrUnknownScheme
	ErrDisconnectedTerminals = steiner.ErrDisconnectedTerminals
	ErrNotAlphaAcyclic       = steiner.ErrNotAlphaAcyclic
)

// Typed snapshot-decode errors, re-exported for errors.Is at the facade.
var (
	ErrNotSnapshot      = snapshot.ErrNotSnapshot
	ErrSnapshotVersion  = snapshot.ErrUnsupportedVersion
	ErrSnapshotChecksum = snapshot.ErrChecksum
	ErrSnapshotCorrupt  = snapshot.ErrCorrupt
)

// Construction options, re-exported from internal/core.
var (
	WithWorkers         = core.WithWorkers
	WithCacheSize       = core.WithCacheSize
	WithCacheShards     = core.WithCacheShards
	WithExactLimit      = core.WithExactLimit
	WithMaxTerminals    = core.WithMaxTerminals
	WithV1TerminalsOnly = core.WithV1TerminalsOnly
)

// Per-query options, re-exported from internal/core.
var (
	WithMethod          = core.WithMethod
	WithQueryExactLimit = core.WithQueryExactLimit
	WithInterpretations = core.WithInterpretations
	WithCacheBypass     = core.WithCacheBypass
)

// NewGraph returns an empty graph.
func NewGraph() *Graph { return graph.New() }

// NewBipartite returns an empty bipartite graph.
func NewBipartite() *Bipartite { return bipartite.New() }

// NewHypergraph returns an empty hypergraph.
func NewHypergraph() *Hypergraph { return hypergraph.New() }

// Open compiles and classifies the scheme once and returns a Service
// answering concurrent, cached, context-aware queries over it; b must not
// be mutated afterwards. This is the main v2 entry point.
func Open(b *Bipartite, opts ...Option) *Service { return core.Open(b, opts...) }

// NewRegistry returns an empty multi-tenant scheme catalog.
func NewRegistry() *Registry { return core.NewRegistry() }

// NewConnector compiles and classifies the scheme once and returns a query
// answerer without a cache or worker pool; b must not be mutated
// afterwards. Use Open unless the cache is unwanted.
func NewConnector(b *Bipartite, opts ...Option) *Connector { return core.New(b, opts...) }

// Freeze compiles a bipartite scheme into its immutable view, safe for
// unsynchronized concurrent readers.
func Freeze(b *Bipartite) *FrozenBipartite { return b.Freeze() }

// FreezeGraph compiles a graph into its immutable CSR view.
func FreezeGraph(g *Graph) *FrozenGraph { return g.Freeze() }

// Classify runs every chordality recognizer on b (Theorem 1 taxonomy).
func Classify(b *Bipartite) Class { return chordality.Classify(b) }

// ClassifyFrozen runs every chordality recognizer on a compiled scheme.
func ClassifyFrozen(fb *FrozenBipartite) Class { return chordality.ClassifyFrozen(fb) }

// FromHypergraph returns the bipartite incidence graph of h.
func FromHypergraph(h *Hypergraph) *Bipartite { return bipartite.FromHypergraph(h).B }

// EncodeSnapshot serializes a compiled epoch (frozen view +
// classification) into the binary catalog format of internal/snapshot.
// Most callers want Service.SaveSnapshot or Registry.SaveSnapshot, which
// take the parts from an already-compiled scheme.
func EncodeSnapshot(fb *FrozenBipartite, class Class) []byte {
	return snapshot.Encode(fb, class)
}

// DecodeSnapshot parses and validates a persisted epoch. Failures are
// typed: ErrNotSnapshot, ErrSnapshotVersion, ErrSnapshotChecksum,
// ErrSnapshotCorrupt.
func DecodeSnapshot(data []byte) (*Snapshot, error) { return snapshot.Decode(data) }

// ReadSnapshotFile loads and decodes a snapshot from disk; see also
// OpenMappedSnapshot for the zero-copy mmap path.
func ReadSnapshotFile(path string) (*Snapshot, error) { return snapshot.ReadFile(path) }

// OpenMappedSnapshot memory-maps a catalog file and decodes it in place —
// the cheapest possible boot for a large scheme. Close the mapping only
// after every Connector/Service built on it is done.
func OpenMappedSnapshot(path string) (*MappedSnapshot, error) { return snapshot.OpenMapped(path) }

// OpenSnapshot is Open for a decoded snapshot: a cached, concurrent
// Service over the persisted epoch, with no Freeze or Classify work.
// Answers are bit-for-bit identical to a live compile of the same scheme.
func OpenSnapshot(s *Snapshot, opts ...Option) *Service { return core.OpenSnapshot(s, opts...) }

// ConnectorFromSnapshot revives a cache-less Connector from a decoded
// snapshot. Use OpenSnapshot unless the cache is unwanted.
func ConnectorFromSnapshot(s *Snapshot, opts ...Option) *Connector {
	return core.NewFromSnapshot(s, opts...)
}
