package httpd

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// scrape GETs /metrics and parses the exposition into a map from the full
// series line prefix (name plus label block, exactly as rendered) to its
// value.
func scrape(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	w := do(t, h, "GET", "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content-type = %q", ct)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(w.Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// series formats the key scrape produces for name{labels…}; labels are
// name=value pairs in registration order (the order the handler passes
// them).
func series(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// TestMetricsEndpoint drives representative traffic through every
// instrument class and asserts the exported series carry the values the
// traffic implies: request counts by endpoint/method/code, solve-latency
// observations, per-scheme cache counters bridged from CacheStats, the
// epoch gauge, the swap counter and the limiter series.
func TestMetricsEndpoint(t *testing.T) {
	reg := testRegistry()
	h := New(reg, WithMaxInFlight(1))

	// Two identical queries: one miss then one hit on scheme lib.
	for i := 0; i < 2; i++ {
		if w := do(t, h, "POST", "/v1/connect", `{"scheme":"lib","terminals":[0,2]}`); w.Code != 200 {
			t.Fatalf("connect status = %d", w.Code)
		}
	}
	// One bypass.
	if w := do(t, h, "POST", "/v1/connect", `{"scheme":"lib","terminals":[0,2],"cache_bypass":true}`); w.Code != 200 {
		t.Fatalf("bypass status = %d", w.Code)
	}
	// One bad request (422: terminal out of range).
	if w := do(t, h, "POST", "/v1/connect", `{"scheme":"lib","terminals":[99]}`); w.Code != 422 {
		t.Fatalf("invalid status = %d", w.Code)
	}
	// One shed while the only slot is held.
	h.sem <- struct{}{}
	if w := do(t, h, "POST", "/v1/connect", `{"scheme":"lib","terminals":[0]}`); w.Code != 429 {
		t.Fatalf("shed status = %d", w.Code)
	}
	<-h.sem
	// One admin install (live compile through PUT).
	if w := do(t, h, "PUT", "/v1/schemes/uploaded", "v1 A\nv1 B\nv2 r\nedge A r\nedge B r\n"); w.Code != 200 {
		t.Fatalf("upload status = %d: %s", w.Code, w.Body.String())
	}

	m := scrape(t, h)
	for key, want := range map[string]float64{
		series(MetricRequestsTotal, "endpoint", "/v1/connect", "method", "POST", "code", "200"):       3,
		series(MetricRequestsTotal, "endpoint", "/v1/connect", "method", "POST", "code", "422"):       1,
		series(MetricRequestsTotal, "endpoint", "/v1/connect", "method", "POST", "code", "429"):       1,
		series(MetricRequestsTotal, "endpoint", "/v1/schemes/{name}", "method", "PUT", "code", "200"): 1,
		MetricSolveDuration + "_count": 4, // sheds do no routed work and stay out
		series(MetricRequestDuration+"_count", "endpoint", "/v1/connect", "method", "POST"): 4,
		MetricLimiterSheds:  1,
		MetricRegistrySwaps: 1,
		MetricInflight:      0,
		MetricInflightLimit: 1,
		series(MetricInstallDuration+"_count", "source", "compiled"): 1,
		series(MetricSchemeEpoch, "scheme", "lib"):                   1,
		series(MetricSchemeEpoch, "scheme", "uploaded"):              1,
		series(MetricCacheHits, "scheme", "lib"):                     1,
		series(MetricCacheMisses, "scheme", "lib"):                   1,
		series(MetricCacheBypasses, "scheme", "lib"):                 1,
		series(MetricCacheRemovals, "scheme", "lib"):                 0,
		series(MetricCacheEntries, "scheme", "lib"):                  1,
	} {
		if got, ok := m[key]; !ok {
			t.Errorf("scrape missing series %s", key)
		} else if got != want {
			t.Errorf("%s = %g, want %g", key, got, want)
		}
	}

	// The per-shard decomposition must sum to the per-scheme totals.
	svc, _ := reg.Get("lib")
	st := svc.Stats()
	var shardHits, shardMisses float64
	for i := 0; i < st.Shards; i++ {
		shardHits += m[series(MetricShardHits, "scheme", "lib", "shard", strconv.Itoa(i))]
		shardMisses += m[series(MetricShardMisses, "scheme", "lib", "shard", strconv.Itoa(i))]
	}
	if shardHits != float64(st.Hits) || shardMisses != float64(st.Misses) {
		t.Errorf("shard sums %g hits / %g misses, Stats says %d / %d",
			shardHits, shardMisses, st.Hits, st.Misses)
	}

	// Capacity gauge matches the wire stats value.
	if got := m[series(MetricCacheCapacity, "scheme", "lib")]; got != float64(st.Capacity) {
		t.Errorf("capacity gauge = %g, Stats says %d", got, st.Capacity)
	}
}

// TestMethodLabelBounded sends 50 distinct method tokens and requires
// them to share one "other" series per family, where each would otherwise
// add its own histogram and counter series to every scrape.
func TestMethodLabelBounded(t *testing.T) {
	h := New(testRegistry())
	for i := 0; i < 50; i++ {
		do(t, h, fmt.Sprintf("M%d", i), "/v1/connect", "")
	}
	w := do(t, h, "GET", "/metrics", "")
	var durSeries int
	for _, line := range strings.Split(w.Body.String(), "\n") {
		if strings.HasPrefix(line, MetricRequestDuration+"_count{") {
			durSeries++
		}
	}
	if durSeries != 1 {
		t.Errorf("%d request-duration series after 50 method tokens, want 1", durSeries)
	}
	m := scrape(t, h)
	if got := m[series(MetricRequestDuration+"_count", "endpoint", "/v1/connect", "method", "other")]; got != 50 {
		t.Errorf("other-method duration count = %g, want 50", got)
	}
	if got := m[series(MetricRequestsTotal, "endpoint", "/v1/connect", "method", "other", "code", "405")]; got != 50 {
		t.Errorf("other-method 405 count = %g, want 50", got)
	}
}

// TestMetricsReconcileWithStats asserts the reconciliation algebra on the
// values a scraper actually sees — including the cancellation path, which
// removes its poisoned entry and must export the removal. The /metrics
// bridge and /v1/stats read the same atomics, so with no concurrent
// traffic the two surfaces must agree exactly.
func TestMetricsReconcileWithStats(t *testing.T) {
	reg := testRegistry()
	// A scheme with no polynomial guarantee: the exact DP on this grid
	// runs far past the request deadline below (same instance the core
	// cancellation tests rely on).
	reg.Set("grid", gen.GridBipartite(8, 8), core.WithExactLimit(20))
	h := New(reg)

	var terms []string
	for v := 0; v < 32; v += 2 {
		terms = append(terms, strconv.Itoa(v))
	}
	body := fmt.Sprintf(`{"scheme":"grid","terminals":[%s],"timeout_ms":30}`, strings.Join(terms, ","))
	w := do(t, h, "POST", "/v1/connect", body)
	decodeError(t, w, http.StatusGatewayTimeout, CodeDeadline)

	// Mixed healthy traffic on another scheme.
	for i := 0; i < 3; i++ {
		if w := do(t, h, "POST", "/v1/connect", `{"scheme":"payroll","labels":["ename","floor"]}`); w.Code != 200 {
			t.Fatalf("payroll connect status = %d", w.Code)
		}
	}

	m := scrape(t, h)
	for _, name := range reg.Names() {
		svc, _ := reg.Get(name)
		st := svc.Stats()
		get := func(metric string) float64 { return m[series(metric, "scheme", name)] }
		hits, misses := get(MetricCacheHits), get(MetricCacheMisses)
		evictions, bypasses := get(MetricCacheEvictions), get(MetricCacheBypasses)
		removals, entries := get(MetricCacheRemovals), get(MetricCacheEntries)
		if hits != float64(st.Hits) || misses != float64(st.Misses) ||
			evictions != float64(st.Evictions) || bypasses != float64(st.Bypasses) ||
			removals != float64(st.Removals) || entries != float64(st.Entries) {
			t.Errorf("scheme %s: /metrics and Stats() disagree: scrape %g/%g/%g/%g/%g/%g vs %+v",
				name, hits, misses, evictions, bypasses, removals, entries, st)
		}
		if entries != misses-evictions-removals {
			t.Errorf("scheme %s: exported residency off: entries %g != misses %g - evictions %g - removals %g",
				name, entries, misses, evictions, removals)
		}
	}

	// The cancellation left exactly one exported removal on grid.
	if got := m[series(MetricCacheRemovals, "scheme", "grid")]; got != 1 {
		t.Errorf("grid removals = %g, want 1", got)
	}
}
