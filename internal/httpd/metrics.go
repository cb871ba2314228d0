package httpd

import (
	"maps"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/metrics"
)

// Metric names exported on GET /metrics. Kept as constants so the e2e
// smoke, the tests and the docs cannot drift from the handler.
const (
	MetricRequestsTotal   = "chordal_http_requests_total"
	MetricRequestDuration = "chordal_http_request_duration_seconds"
	MetricSolveDuration   = "chordal_solve_duration_seconds"
	MetricInflight        = "chordal_http_inflight_requests"
	MetricInflightLimit   = "chordal_http_inflight_limit"
	MetricLimiterSheds    = "chordal_http_limiter_sheds_total"
	MetricRegistrySwaps   = "chordal_registry_swaps_total"
	MetricInstallDuration = "chordal_scheme_install_duration_seconds"
	MetricSchemeEpoch     = "chordal_scheme_epoch"
	MetricCacheHits       = "chordal_cache_hits_total"
	MetricCacheMisses     = "chordal_cache_misses_total"
	MetricCacheEvictions  = "chordal_cache_evictions_total"
	MetricCacheBypasses   = "chordal_cache_bypasses_total"
	MetricCacheRemovals   = "chordal_cache_removals_total"
	MetricCacheWarmFills  = "chordal_cache_warm_fills_total"
	MetricCacheCostSaved  = "chordal_cache_cost_saved_seconds_total"
	MetricCacheCostRes    = "chordal_cache_cost_resident_seconds"
	MetricCacheEntries    = "chordal_cache_entries"
	MetricCacheCapacity   = "chordal_cache_capacity"
	MetricShardHits       = "chordal_cache_shard_hits_total"
	MetricShardMisses     = "chordal_cache_shard_misses_total"
	MetricShardEvictions  = "chordal_cache_shard_evictions_total"
	MetricShardEntries    = "chordal_cache_shard_entries"
)

// initMetrics builds the handler's metrics registry: the static request-
// path instruments plus the scrape-time bridges onto state the Registry
// and the per-scheme caches already own (per-scheme counters, per-shard
// occupancy, epochs, limiter depth). Called once from New — sampler
// families panic on double registration, so each Handler owns its own
// metrics.Registry.
func (h *Handler) initMetrics() {
	m := metrics.NewRegistry()
	h.met = m
	h.reqSeries.Store(&map[requestKey]requestSeries{})
	h.solveDur = m.Histogram(MetricSolveDuration,
		"End-to-end latency of query endpoints (/v1/connect, /v1/batch, /v1/interpretations); feeds the Retry-After estimate.",
		metrics.DefLatencyBounds())
	h.sheds = m.Counter(MetricLimiterSheds,
		"Requests rejected 429/overloaded by the in-flight limiter.")
	h.swaps = m.Counter(MetricRegistrySwaps,
		"Scheme installs through the admin surface (PUT upload-and-swap).")

	m.GaugeFunc(MetricInflight, "Requests currently holding an in-flight limiter slot.",
		func() []metrics.Sample {
			if h.sem == nil {
				return nil
			}
			return []metrics.Sample{{Value: float64(len(h.sem))}}
		})
	m.GaugeFunc(MetricInflightLimit, "Capacity of the in-flight limiter (0 = unlimited).",
		func() []metrics.Sample {
			return []metrics.Sample{{Value: float64(cap(h.sem))}}
		})
	m.GaugeFunc(MetricSchemeEpoch, "Current compile-and-swap epoch per registered scheme.",
		func() []metrics.Sample {
			var out []metrics.Sample
			for _, name := range h.reg.Names() {
				if _, epoch, ok := h.reg.Lookup(name); ok {
					out = append(out, metrics.Sample{
						Labels: []metrics.Label{metrics.L("scheme", name)},
						Value:  float64(epoch),
					})
				}
			}
			return out
		})

	// Per-scheme answer-cache counters, bridged from core.CacheStats at
	// scrape time — the /metrics values and /v1/stats are two renderings
	// of the same atomics, which the reconciliation tests rely on.
	cacheStat := func(name, help string, f func(core.CacheStats) float64) {
		m.CounterFunc(name, help, h.cacheSamples(f))
	}
	cacheGauge := func(name, help string, f func(core.CacheStats) float64) {
		m.GaugeFunc(name, help, h.cacheSamples(f))
	}
	cacheStat(MetricCacheHits, "Answer-cache lookups that found an entry, per scheme.",
		func(st core.CacheStats) float64 { return float64(st.Hits) })
	cacheStat(MetricCacheMisses, "Answer-cache lookups that started a computation, per scheme.",
		func(st core.CacheStats) float64 { return float64(st.Misses) })
	cacheStat(MetricCacheEvictions, "Answer-cache entries dropped by LRU capacity pressure, per scheme.",
		func(st core.CacheStats) float64 { return float64(st.Evictions) })
	cacheStat(MetricCacheBypasses, "Queries answered around the cache (cache_bypass), per scheme.",
		func(st core.CacheStats) float64 { return float64(st.Bypasses) })
	cacheStat(MetricCacheRemovals, "Entries deliberately evicted (cancellation outcomes, panics), per scheme.",
		func(st core.CacheStats) float64 { return float64(st.Removals) })
	cacheStat(MetricCacheWarmFills, "Entries installed without a miss (snapshot warmup restore, epoch-swap carry-over), per scheme.",
		func(st core.CacheStats) float64 { return float64(st.WarmFills) })
	cacheStat(MetricCacheCostSaved, "Recorded recompute cost of every cache hit — solver seconds the cache turned into lookups, per scheme.",
		func(st core.CacheStats) float64 { return float64(st.CostSavedNanos) / 1e9 })
	cacheGauge(MetricCacheCostRes, "Recompute cost banked in resident entries (cost-aware eviction's ledger), per scheme.",
		func(st core.CacheStats) float64 { return float64(st.CostResidentNanos) / 1e9 })
	cacheGauge(MetricCacheEntries, "Answer-cache entries currently resident, per scheme.",
		func(st core.CacheStats) float64 { return float64(st.Entries) })
	cacheGauge(MetricCacheCapacity, "Effective answer-cache capacity, per scheme.",
		func(st core.CacheStats) float64 { return float64(st.Capacity) })

	// Per-shard series (hits/misses/evictions/occupancy) off the sharded
	// cache itself: uniform traffic should spread evenly across shards,
	// and persistent skew is a key-hashing problem worth seeing.
	shardStat := func(name, help string, gauge bool, f func(cache.ShardStat) float64) {
		sampler := h.shardSamples(f)
		if gauge {
			m.GaugeFunc(name, help, sampler)
		} else {
			m.CounterFunc(name, help, sampler)
		}
	}
	shardStat(MetricShardHits, "Answer-cache hits per scheme and lock shard.", false,
		func(ss cache.ShardStat) float64 { return float64(ss.Hits) })
	shardStat(MetricShardMisses, "Answer-cache misses per scheme and lock shard.", false,
		func(ss cache.ShardStat) float64 { return float64(ss.Misses) })
	shardStat(MetricShardEvictions, "Answer-cache capacity evictions per scheme and lock shard.", false,
		func(ss cache.ShardStat) float64 { return float64(ss.Evictions) })
	shardStat(MetricShardEntries, "Answer-cache resident entries per scheme and lock shard.", true,
		func(ss cache.ShardStat) float64 { return float64(ss.Entries) })

	// Per-scheme batch-planner histograms (trace.go) ride the same
	// scrape-time bridge pattern.
	h.initPlannerMetrics(m)
}

// cacheSamples adapts a CacheStats projection into a scrape-time sampler
// producing one sample per registered scheme.
func (h *Handler) cacheSamples(f func(core.CacheStats) float64) func() []metrics.Sample {
	return func() []metrics.Sample {
		var out []metrics.Sample
		for _, name := range h.reg.Names() {
			svc, ok := h.reg.Get(name)
			if !ok {
				continue
			}
			out = append(out, metrics.Sample{
				Labels: []metrics.Label{metrics.L("scheme", name)},
				Value:  f(svc.Stats()),
			})
		}
		return out
	}
}

// shardSamples adapts a ShardStat projection into a scrape-time sampler
// producing one sample per (scheme, shard) pair.
func (h *Handler) shardSamples(f func(cache.ShardStat) float64) func() []metrics.Sample {
	return func() []metrics.Sample {
		var out []metrics.Sample
		for _, name := range h.reg.Names() {
			svc, ok := h.reg.Get(name)
			if !ok {
				continue
			}
			for i, ss := range svc.ShardStats() {
				out = append(out, metrics.Sample{
					Labels: []metrics.Label{
						metrics.L("scheme", name),
						metrics.L("shard", strconv.Itoa(i)),
					},
					Value: f(ss),
				})
			}
		}
		return out
	}
}

// Metrics returns the handler's metrics registry — exported for tests and
// for embedding servers that want to add their own series to the same
// scrape.
func (h *Handler) Metrics() *metrics.Registry { return h.met }

// handleMetrics serves the Prometheus text exposition. Like the other
// monitoring GETs it is exempt from the in-flight limiter: a scrape must
// keep answering precisely while the limiter is shedding query traffic.
func (h *Handler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	// A broken connection mid-scrape has no useful recovery; the next
	// scrape gets fresh values.
	_ = h.met.WritePrometheus(w)
}

// endpointLabel maps a request to the bounded endpoint label set used on
// the HTTP metric series. Path parameters collapse to their pattern and
// unknown paths to "other", so series cardinality cannot grow with
// traffic.
func endpointLabel(r *http.Request) string {
	p := r.URL.Path
	switch p {
	case "/v1/connect", "/v1/batch", "/v1/interpretations", "/v1/schemes", "/v1/stats", "/metrics", "/v1/traces":
		return p
	}
	if strings.HasPrefix(p, "/v1/schemes/") {
		if strings.HasSuffix(p, "/snapshot") {
			return "/v1/schemes/{name}/snapshot"
		}
		return "/v1/schemes/{name}"
	}
	return "other"
}

// queryEndpoint reports whether the endpoint does solver work — the
// subset whose latency feeds the solve histogram and so the Retry-After
// estimate.
func queryEndpoint(endpoint string) bool {
	switch endpoint {
	case "/v1/connect", "/v1/batch", "/v1/interpretations":
		return true
	}
	return false
}

// methodLabel maps a request method to the bounded method label set, so
// series cardinality cannot grow with the method tokens clients send.
func methodLabel(method string) string {
	switch method {
	case http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodDelete:
		return method
	}
	return "other"
}

// requestKey identifies one request's series: its endpoint and method
// labels and its status code.
type requestKey struct {
	endpoint, method string
	code             int
}

// requestSeries are the two series a routed request records on.
type requestSeries struct {
	dur   *metrics.Histogram
	total *metrics.Counter
}

// requestSeriesFor returns k's series, registering them on first use.
func (h *Handler) requestSeriesFor(k requestKey) requestSeries {
	if s, ok := (*h.reqSeries.Load())[k]; ok {
		return s
	}
	h.reqMu.Lock()
	defer h.reqMu.Unlock()
	old := *h.reqSeries.Load()
	if s, ok := old[k]; ok {
		return s
	}
	s := requestSeries{
		dur: h.met.Histogram(MetricRequestDuration,
			"HTTP request latency by endpoint and method.",
			metrics.DefLatencyBounds(),
			metrics.L("endpoint", k.endpoint), metrics.L("method", k.method)),
		total: h.met.Counter(MetricRequestsTotal,
			"HTTP requests by endpoint, method and status code.",
			metrics.L("endpoint", k.endpoint), metrics.L("method", k.method),
			metrics.L("code", strconv.Itoa(k.code))),
	}
	next := make(map[requestKey]requestSeries, len(old)+1)
	maps.Copy(next, old)
	next[k] = s
	h.reqSeries.Store(&next)
	return s
}

// observeRequest records one routed request on the per-endpoint metric
// families. traceID, when non-empty, is the id of the request's retained
// trace and is offered to the solve histogram as its exemplar, linking
// the latency tail back to a trace /v1/traces can actually resolve.
func (h *Handler) observeRequest(endpoint, method string, status int, d time.Duration, traceID string) {
	s := h.requestSeriesFor(requestKey{endpoint, methodLabel(method), status})
	s.dur.ObserveDuration(d)
	s.total.Inc()
	if queryEndpoint(endpoint) {
		h.solveDur.ObserveWithExemplar(d.Seconds(), traceID)
	}
}

// retryAfterSeconds derives the Retry-After hint from the observed p50
// solve latency: when the server is shedding, one median service time is
// the natural backoff unit. Rounded up, floor 1s (the header is integer
// seconds, and an idle histogram must not advertise 0).
func (h *Handler) retryAfterSeconds() string {
	secs := int(math.Ceil(h.solveDur.Quantile(0.5)))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// statusWriter captures the response status for the requests_total code
// label. A handler that writes the body without an explicit WriteHeader
// implies 200, mirroring net/http.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(status int) {
	if sw.status == 0 {
		sw.status = status
	}
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }
