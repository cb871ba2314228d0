package core

import (
	"fmt"
	"strconv"
	"strings"
)

// config collects the compile-time knobs of New/NewService/Open. One option
// type covers both layers so a single option list can configure a whole
// stack (chordal.Open passes the same slice to the connector and the
// service); each constructor reads only the fields it owns.
type config struct {
	workers      int  // service: ConnectBatch pool size (<=0: GOMAXPROCS)
	cacheSize    int  // service: LRU capacity (<=0: DefaultCacheSize)
	cacheShards  int  // service: cache lock shards (<=0: cache.DefaultShards)
	exactLimit   int  // connector: exact-solver dispatch threshold
	maxTerminals int  // connector: per-query terminal budget (0: unlimited)
	v1Only       bool // connector: reject V2 terminal ids
}

// Option configures New, NewService, Open, and Registry.Set at
// construction time.
type Option func(*config)

// WithWorkers bounds the ConnectBatch worker pool. Non-positive selects
// GOMAXPROCS.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithCacheSize bounds the service's LRU answer cache. Non-positive
// selects DefaultCacheSize. The capacity is split across the cache's lock
// shards by ceiling division with a floor of one entry per shard, so the
// effective capacity (CacheStats.Capacity) rounds up to a multiple of the
// shard count and is never silently below the request.
func WithCacheSize(n int) Option { return func(c *config) { c.cacheSize = n } }

// WithCacheShards sets how many shards the service's answer cache is
// split into; n is rounded up to a power of two. Non-positive selects the
// default, GOMAXPROCS rounded up to a power of two and capped at 64.
// Hits take no lock at any shard count; more shards cut contention
// between concurrent misses, which serialize on their shard's mutex.
// Eviction compares entries within one shard, so WithCacheShards(1)
// makes the order one cache-wide cost-aware sampled recency (plain LRU
// while every recorded cost is under ~0.5 ms), useful when eviction order
// must be deterministic. Answers are identical at any shard count — only
// writer contention and the eviction victim under capacity pressure
// change.
func WithCacheShards(n int) Option { return func(c *config) { c.cacheShards = n } }

// WithExactLimit sets the largest terminal count dispatched to the exact
// Dreyfus–Wagner solver on schemes without a polynomial guarantee; larger
// queries fall back to the 2-approximation. Non-positive selects
// DefaultExactLimit.
func WithExactLimit(k int) Option { return func(c *config) { c.exactLimit = k } }

// WithMaxTerminals caps the terminal count accepted per query; queries
// above the cap are rejected at the boundary with ErrTooManyTerminals
// before any solver runs. Non-positive means unlimited.
func WithMaxTerminals(n int) Option { return func(c *config) { c.maxTerminals = n } }

// WithV1TerminalsOnly restricts queries to V1 (attribute) terminals —
// the universal-relation deployment, where users name attributes and the
// relation schemes are the system's business. V2 ids are rejected with
// ErrInvalidTerminal.
func WithV1TerminalsOnly() Option { return func(c *config) { c.v1Only = true } }

// MethodAuto selects the dispatch-by-classification default of Connect
// (the strongest algorithm the scheme's chordality class admits).
const MethodAuto Method = -1

// queryConfig collects the per-query knobs of Connect/ConnectBatch.
type queryConfig struct {
	method      Method // MethodAuto: dispatch by classification
	exactLimit  int    // <=0: connector default
	maxAux      int    // interpretations: auxiliary-node bound
	interpLimit int    // interpretations requested (0: none)
	bypassCache bool   // service: skip the answer cache
}

// QueryOption configures a single Connect/ConnectBatch call.
type QueryOption func(*queryConfig)

// WithMethod forces a specific solver instead of dispatch by
// classification. A forced method may fail where the dispatcher would have
// chosen another (e.g. MethodAlgorithm1 on a scheme whose H¹ is not
// α-acyclic returns steiner.ErrNotAlphaAcyclic, MethodExact above the
// terminal limit returns ErrTooManyTerminals); the guarantee flags of the
// returned Connection reflect the scheme's class as usual.
func WithMethod(m Method) QueryOption { return func(q *queryConfig) { q.method = m } }

// WithQueryExactLimit overrides the connector's exact-solver dispatch
// threshold for this query only.
func WithQueryExactLimit(k int) QueryOption { return func(q *queryConfig) { q.exactLimit = k } }

// WithInterpretations also enumerates up to limit ranked alternative
// interpretations with at most maxAux auxiliary nodes each (the paper's
// interactive-disambiguation list) into Connection.Interps.
func WithInterpretations(maxAux, limit int) QueryOption {
	return func(q *queryConfig) { q.maxAux, q.interpLimit = maxAux, limit }
}

// WithCacheBypass makes a Service answer this query directly, neither
// reading nor writing the answer cache.
func WithCacheBypass() QueryOption { return func(q *queryConfig) { q.bypassCache = true } }

// newQueryConfig folds opts over the defaults.
func newQueryConfig(opts []QueryOption) queryConfig {
	q := queryConfig{method: MethodAuto}
	for _, o := range opts {
		o(&q)
	}
	return q
}

// fingerprint is the cache-key prefix encoding every option that changes
// the answer. The default configuration encodes to "" so the common path
// stays compact; bypassCache is deliberately excluded (it changes routing,
// not the answer).
func (q queryConfig) fingerprint() string {
	if q.method == MethodAuto && q.exactLimit <= 0 && q.interpLimit <= 0 {
		return ""
	}
	var sb strings.Builder
	if q.method != MethodAuto {
		sb.WriteByte('m')
		sb.WriteString(strconv.Itoa(int(q.method)))
	}
	if q.exactLimit > 0 {
		sb.WriteByte('e')
		sb.WriteString(strconv.Itoa(q.exactLimit))
	}
	if q.interpLimit > 0 {
		fmt.Fprintf(&sb, "i%d:%d", q.maxAux, q.interpLimit)
	}
	return sb.String()
}
