package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/bipartite"
	"repro/internal/chordality"
	"repro/internal/intset"
	"repro/internal/snapshot"
	"repro/internal/steiner"
)

// Method identifies which algorithm produced a connection (see also
// MethodAuto in options.go, the Connect default).
type Method int

// Methods, strongest guarantee first.
const (
	MethodAlgorithm2 Method = iota // Theorem 5: optimal Steiner tree
	MethodAlgorithm1               // Theorem 3: V2-minimum tree
	MethodExact                    // Dreyfus–Wagner (exponential in |P|)
	MethodHeuristic                // metric-closure 2-approximation
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodAuto:
		return "auto"
	case MethodAlgorithm2:
		return "algorithm-2"
	case MethodAlgorithm1:
		return "algorithm-1"
	case MethodExact:
		return "exact"
	case MethodHeuristic:
		return "heuristic"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Connection is an answered minimal-connection query.
type Connection struct {
	Tree      steiner.Tree
	Method    Method
	Optimal   bool   // total node count is guaranteed minimum
	V2Optimal bool   // the number of V2 nodes is guaranteed minimum
	Rationale string // which classification/theorem justified the method
	// Interps holds the ranked alternative interpretations when the query
	// asked for them (WithInterpretations); nil otherwise.
	Interps []Interpretation
}

// DefaultExactLimit is the terminal count up to which schemes without a
// polynomial guarantee are answered exactly (Dreyfus–Wagner) rather than
// by the 2-approximation. Override per connector with WithExactLimit or
// per query with WithQueryExactLimit.
const DefaultExactLimit = 12

// Connector answers minimal-connection queries over a fixed scheme. It is
// built on the frozen CSR view, so concurrent Connect calls need no
// synchronization; the scheme must not be mutated after New.
type Connector struct {
	fb    *bipartite.Frozen
	class chordality.Class
	cfg   config
	// snapVersion stamps a connector revived from a persisted epoch with
	// the snapshot's format version; 0 means compiled live.
	snapVersion uint16

	// b is the mutable scheme view. New sets it eagerly (the caller's
	// graph); NewFromSnapshot leaves it nil and thaws it from the frozen
	// view on first use, so booting from a snapshot does no graph rebuild
	// unless a code path actually needs the mutable form (ranked-cover
	// enumeration, label resolution at the HTTP boundary).
	thawOnce sync.Once
	b        *bipartite.Graph

	// fp is the lazily computed scheme fingerprint (SchemeFingerprint):
	// an O(scheme) encode+hash paid at most once per connector, and only
	// by code paths that actually compare epochs (warmup, epoch swaps).
	fpOnce sync.Once
	fp     []byte
}

// newConfig folds construction options over the defaults.
func newConfig(opts []Option) config {
	cfg := config{exactLimit: DefaultExactLimit}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.exactLimit <= 0 {
		cfg.exactLimit = DefaultExactLimit
	}
	return cfg
}

// New compiles the scheme once — freeze + classify, both polynomial — and
// returns a Connector answering queries on the frozen view. Recognized
// options: WithExactLimit, WithMaxTerminals, WithV1TerminalsOnly.
func New(b *bipartite.Graph, opts ...Option) *Connector {
	fb := b.Freeze()
	return &Connector{b: b, fb: fb, class: chordality.ClassifyFrozen(fb), cfg: newConfig(opts)}
}

// NewFromSnapshot revives a Connector from a decoded snapshot without any
// recompilation: the frozen view and the classification come straight from
// the file, so construction is O(1) regardless of scheme size. Answers are
// bit-for-bit identical to a Connector compiled live from the same scheme
// (the round-trip property suite in internal/snapshot holds it to that).
// The same construction options as New apply.
func NewFromSnapshot(snap *snapshot.Snapshot, opts ...Option) *Connector {
	return &Connector{fb: snap.Frozen, class: snap.Class, cfg: newConfig(opts), snapVersion: snap.Version}
}

// Open compiles the scheme and wraps it for concurrent serving in one
// call: Open(b, opts...) ≡ NewService(New(b, opts...), opts...).
func Open(b *bipartite.Graph, opts ...Option) *Service {
	return NewService(New(b, opts...), opts...)
}

// OpenSnapshot is Open for a decoded snapshot: a cached, concurrent
// Service over the revived epoch, with zero recompile work. When the
// snapshot carries a warmup section (already fingerprint-validated by
// Decode), its answers are installed before the Service is returned, so
// the first queries of the new process are cache hits — entries the
// service's own options reject are skipped, never installed.
func OpenSnapshot(snap *snapshot.Snapshot, opts ...Option) *Service {
	svc := NewService(NewFromSnapshot(snap, opts...), opts...)
	if len(snap.Warmup) > 0 {
		svc.RestoreWarmup(snap.Warmup)
	}
	return svc
}

// Class returns the scheme's chordality classification.
func (c *Connector) Class() chordality.Class { return c.class }

// SnapshotVersion returns the format version of the snapshot this
// connector was loaded from, or 0 when it was compiled live.
func (c *Connector) SnapshotVersion() uint16 { return c.snapVersion }

// WriteSnapshot serializes the compiled epoch — frozen CSR view plus
// classification — so a later process can boot it with NewFromSnapshot
// instead of re-running Freeze+Classify.
func (c *Connector) WriteSnapshot(w io.Writer) error {
	return snapshot.Write(w, c.fb, c.class)
}

// SchemeFingerprint identifies the compiled epoch: the sha256 of its
// canonical snapshot encoding (snapshot.EpochFingerprint). Two
// connectors share a fingerprint iff they serve the identical scheme and
// classification — the condition under which cached answers may flow
// between them (warmup restore, Registry epoch-swap carry-over). Lazily
// computed once and cached; the result must not be modified.
func (c *Connector) SchemeFingerprint() []byte {
	c.fpOnce.Do(func() { c.fp = snapshot.EpochFingerprint(c.fb, c.class) })
	return c.fp
}

// Graph returns the mutable bipartite scheme view. For a live-compiled
// connector this is the graph passed to New; for a snapshot-loaded one it
// is thawed from the frozen view on first call (ids, labels and adjacency
// identical to the originally compiled scheme).
func (c *Connector) Graph() *bipartite.Graph {
	c.thawOnce.Do(func() {
		if c.b == nil {
			c.b = c.fb.Thaw()
		}
	})
	return c.b
}

// Frozen returns the compiled scheme view queries are answered on.
func (c *Connector) Frozen() *bipartite.Frozen { return c.fb }

// ExactLimit returns the connector's exact-solver dispatch threshold.
func (c *Connector) ExactLimit() int { return c.cfg.exactLimit }

// Validate applies the boundary checks Connect performs — non-empty,
// in-range, duplicate-free, within the terminal budget, on an allowed
// partition — without running a solver.
func (c *Connector) Validate(terminals []int) error {
	return validateTerminals(c.fb, terminals, c.cfg.maxTerminals, c.cfg.v1Only)
}

// Connect returns a minimal connection over the terminals, dispatched by
// the scheme's class (or forced by WithMethod). It honors ctx deadlines
// inside the solvers and validates the terminals before dispatch.
func (c *Connector) Connect(ctx context.Context, terminals []int, opts ...QueryOption) (Connection, error) {
	return c.connect(ctx, terminals, newQueryConfig(opts))
}

// connect is Connect after option folding.
func (c *Connector) connect(ctx context.Context, terminals []int, q queryConfig) (Connection, error) {
	if err := c.Validate(terminals); err != nil {
		return Connection{}, err
	}
	return c.connectValidated(ctx, terminals, q)
}

// connectValidated is connect minus the boundary checks — the entry point
// for Service, which validates once itself before consulting the cache.
func (c *Connector) connectValidated(ctx context.Context, terminals []int, q queryConfig) (Connection, error) {
	return c.connectShared(ctx, terminals, q, nil)
}

// connectShared is connectValidated with precomputed batch-planner work
// threaded through to the solvers (sh may be nil). Answers are identical
// with or without sh; the Shared only removes repeated BFS floods.
func (c *Connector) connectShared(ctx context.Context, terminals []int, q queryConfig, sh *steiner.Shared) (Connection, error) {
	if err := ctx.Err(); err != nil {
		return Connection{}, err
	}
	conn, err := c.dispatch(ctx, terminals, q, sh)
	if err != nil {
		return Connection{}, err
	}
	if q.interpLimit > 0 {
		interps, err := c.interpretations(ctx, terminals, q.maxAux, q.interpLimit)
		if err != nil {
			return Connection{}, err
		}
		conn.Interps = interps
	}
	return conn, nil
}

// resolveMethod folds MethodAuto down to the concrete solver the
// classification selects for this terminal count — shared by dispatch and
// the batch planner (which must predict the solver to know whether
// precomputed distance rows will be used).
func (c *Connector) resolveMethod(q queryConfig, nTerminals int) Method {
	m := q.method
	if m != MethodAuto {
		return m
	}
	exactLimit := q.exactLimit
	if exactLimit <= 0 {
		exactLimit = c.cfg.exactLimit
	}
	// Clamp to the solver's hard cap so a generous WithExactLimit keeps
	// its contract: queries the exact solver would refuse fall back to
	// the heuristic instead of failing with ErrTooManyTerminals.
	if exactLimit > steiner.ExactTerminalLimit {
		exactLimit = steiner.ExactTerminalLimit
	}
	switch {
	case c.class.Chordal62:
		return MethodAlgorithm2
	case c.class.AlphaV1():
		return MethodAlgorithm1
	case nTerminals <= exactLimit:
		return MethodExact
	default:
		return MethodHeuristic
	}
}

// dispatch picks the solver — by classification for MethodAuto, as forced
// otherwise — and stamps the guarantee flags the scheme's class actually
// supports (a forced method never claims an optimality the class does not
// prove). sh, when non-nil, supplies precomputed batch work to the solvers.
func (c *Connector) dispatch(ctx context.Context, terminals []int, q queryConfig, sh *steiner.Shared) (Connection, error) {
	switch m := c.resolveMethod(q, len(terminals)); m {
	case MethodAlgorithm2:
		rationale := "forced algorithm-2: single-pass elimination without the (6,2)-chordal minimality guarantee"
		if c.class.Chordal62 {
			tree, err := steiner.MinimumTreeFrozenShared(ctx, c.fb, terminals, sh)
			if err == nil {
				return Connection{
					Tree: tree, Method: MethodAlgorithm2, Optimal: true, V2Optimal: true,
					Rationale: "(6,2)-chordal scheme: every nonredundant cover is minimum (Theorem 5)",
				}, nil
			}
			if !errors.Is(err, steiner.ErrNotAlphaAcyclic) {
				return Connection{}, err
			}
			// No (6,2)-chordal scheme has a component whose H¹ is not
			// α-acyclic (Corollary 2, Theorem 1), so the class is wrong —
			// a snapshot's class byte is not checked. Claim nothing.
			rationale = "classified (6,2)-chordal, but the terminals' component is not alpha-acyclic: single-pass elimination without guarantees"
		}
		tree, err := steiner.Algorithm2FrozenShared(ctx, c.fb.G(), terminals, sh)
		if err != nil {
			return Connection{}, err
		}
		return Connection{Tree: tree, Method: MethodAlgorithm2, Rationale: rationale}, nil
	case MethodAlgorithm1:
		tree, err := steiner.Algorithm1FrozenShared(ctx, c.fb, terminals, sh)
		if err != nil {
			return Connection{}, err
		}
		conn := Connection{Tree: tree, Method: MethodAlgorithm1, V2Optimal: c.class.AlphaV1()}
		if c.class.AlphaV1() {
			conn.Rationale = "V1-chordal, V1-conformal scheme (alpha-acyclic H¹): minimal number of relations via the Lemma 1 elimination ordering (Theorem 3); total minimality is NP-complete here (Theorem 2)"
		} else {
			conn.Rationale = "forced algorithm-1 on the terminals' alpha-acyclic component, without the scheme-wide Theorem 3 guarantee"
		}
		return conn, nil
	case MethodExact:
		tree, err := steiner.ExactFrozenShared(ctx, c.fb.G(), terminals, sh)
		if err != nil {
			if errors.Is(err, steiner.ErrTooManyTerminals) {
				return Connection{}, fmt.Errorf("%w: %d terminals exceed the exact solver's hard limit of %d",
					ErrTooManyTerminals, len(terminals), steiner.ExactTerminalLimit)
			}
			return Connection{}, err
		}
		return Connection{
			Tree: tree, Method: MethodExact, Optimal: true,
			Rationale: fmt.Sprintf("no chordality guarantee: exact search over %d terminals (exponential, Theorem 2 forbids better in general)", len(terminals)),
		}, nil
	case MethodHeuristic:
		tree, err := steiner.ApproximateFrozenShared(ctx, c.fb.G(), terminals, sh)
		if err != nil {
			return Connection{}, err
		}
		return Connection{
			Tree: tree, Method: MethodHeuristic,
			Rationale: "no chordality guarantee and too many terminals for exact search: metric-closure 2-approximation",
		}, nil
	default:
		return Connection{}, fmt.Errorf("core: unknown method %v", m)
	}
}

// Interpretation is one candidate connection in a ranked enumeration:
// a nonredundant cover of the query with its auxiliary (non-terminal)
// objects.
type Interpretation struct {
	Nodes     intset.Set
	Auxiliary intset.Set // Nodes minus the terminals
}

// Interpretations enumerates connections over the terminals ranked by the
// number of auxiliary objects — the paper's interactive-disambiguation
// order, where the minimal interpretation is proposed first. It lists
// nonredundant covers with at most maxAux auxiliary nodes, up to limit
// results, smallest first (ties broken canonically).
//
// The enumeration (steiner.RankedCovers) is exponential in maxAux,
// matching the interactive use-case of schema-sized graphs; ctx bounds it,
// and the terminals are validated at the boundary like Connect's.
func (c *Connector) Interpretations(ctx context.Context, terminals []int, maxAux, limit int) ([]Interpretation, error) {
	if err := c.Validate(terminals); err != nil {
		return nil, err
	}
	return c.interpretations(ctx, terminals, maxAux, limit)
}

func (c *Connector) interpretations(ctx context.Context, terminals []int, maxAux, limit int) ([]Interpretation, error) {
	p := intset.FromSlice(terminals)
	covers, err := steiner.RankedCovers(ctx, c.Graph().G(), terminals, maxAux, limit)
	if err != nil {
		return nil, err
	}
	out := make([]Interpretation, len(covers))
	for i, sel := range covers {
		out[i] = Interpretation{Nodes: sel, Auxiliary: sel.Diff(p)}
	}
	return out, nil
}

// Describe renders the classification for humans (CLI output).
func (c *Connector) Describe() string {
	cl := c.class
	s := "scheme classification:\n"
	row := func(name string, v bool) string {
		mark := "no"
		if v {
			mark = "yes"
		}
		return fmt.Sprintf("  %-28s %s\n", name, mark)
	}
	s += row("(4,1)-chordal (acyclic)", cl.Chordal41)
	s += row("(6,2)-chordal", cl.Chordal62)
	s += row("(6,1)-chordal", cl.Chordal61)
	s += row("V1-chordal", cl.V1Chordal)
	s += row("V1-conformal", cl.V1Conformal)
	s += row("V2-chordal", cl.V2Chordal)
	s += row("V2-conformal", cl.V2Conformal)
	switch {
	case cl.Chordal62:
		s += "  => Steiner trees solvable exactly in polynomial time (Theorem 5)\n"
	case cl.AlphaV1():
		s += "  => pseudo-Steiner w.r.t. V2 polynomial (Theorem 3); Steiner NP-complete (Theorem 2)\n"
	default:
		s += "  => no polynomial guarantee from the paper's taxonomy\n"
	}
	return s
}
