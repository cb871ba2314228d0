package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/httpd"
)

// loadConfig carries the -load flags into runLoad.
type loadConfig struct {
	target      string        // "self" (boot an in-process server) or a base URL
	duration    time.Duration // warm-phase length (ignored when replaying a trace)
	concurrency int           // client workers
	zipfS       float64       // zipf exponent for warm-phase popularity (> 1)
	seed        int64         // workload RNG seed
	trace       string        // replay queries from this trace file
	traceRecord string        // record the warm-phase query stream here
}

// poolQuery is one prepared query of the workload: its scheme, terminals
// and the request body sent verbatim on every issue.
type poolQuery struct {
	scheme string
	terms  []int
	body   string
}

func makePoolQuery(scheme string, terms []int) poolQuery {
	parts := make([]string, len(terms))
	for i, t := range terms {
		parts[i] = strconv.Itoa(t)
	}
	return poolQuery{
		scheme: scheme,
		terms:  terms,
		body: fmt.Sprintf(`{"scheme":%q,"terminals":[%s]}`,
			scheme, strings.Join(parts, ",")),
	}
}

// phaseReport is the measured outcome of one load phase. Latencies are
// client-observed, milliseconds.
type phaseReport struct {
	requests, errors  int
	qps, p50ms, p99ms float64
	cacheHitRate      float64
}

// runLoad drives the load harness: build (or discover) the scheme mix and
// its query pool, run the cold pass then the warm pass against the target
// server, and report cold/warm QPS and latency quantiles.
func runLoad(ctx context.Context, cfg loadConfig, stdout, stderr io.Writer, schemeOpts []core.Option) error {
	base := cfg.target
	if cfg.target == "self" {
		reg, err := loadSchemeMix(cfg.seed, schemeOpts)
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srvCtx, stopSrv := context.WithCancel(ctx)
		srvDone := make(chan error, 1)
		// Unlimited in-flight: the harness measures solver and cache
		// throughput, and shed 429s would poison the latency sample.
		h := httpd.New(reg, httpd.WithMaxInFlight(0), httpd.WithSchemeOptions(schemeOpts...))
		go func() { srvDone <- httpd.Serve(srvCtx, ln, h, 0) }()
		defer func() {
			stopSrv()
			<-srvDone
		}()
		base = "http://" + ln.Addr().String()
		fmt.Fprintf(stderr, "chordalctl: load target self (%s), schemes: %s\n",
			base, strings.Join(reg.Names(), " "))
	}
	base = strings.TrimSuffix(base, "/")

	schemes, err := fetchSchemeSizes(ctx, base)
	if err != nil {
		return fmt.Errorf("-load: listing schemes on %s: %w", base, err)
	}

	var pool []poolQuery
	if cfg.trace != "" {
		pool, err = readTrace(cfg.trace)
	} else {
		pool = buildQueryPool(cfg.seed, schemes)
	}
	if err != nil {
		return err
	}
	if len(pool) == 0 {
		return fmt.Errorf("-load: empty query pool")
	}

	d := &loadDriver{base: base, client: &http.Client{Timeout: 30 * time.Second}}

	// Cold pass: every distinct pool query exactly once, shuffled across
	// schemes, so each one is a compulsory cache miss (on a fresh server).
	// A replayed trace repeats queries; only the warm pass sends repeats.
	shuffled := distinctQueries(pool)
	rand.New(rand.NewSource(cfg.seed^0x5eed)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	cold, err := d.runPhase(ctx, "cold", func(issue func(poolQuery)) {
		forEach(len(shuffled), cfg.concurrency, func(i int) {
			if ctx.Err() == nil {
				issue(shuffled[i])
			}
		})
	})
	if err != nil {
		return err
	}

	// Warm pass: zipfian repeats over the pool for the configured
	// duration — or, when replaying, the recorded stream exactly once.
	var record *traceRecorder
	if cfg.traceRecord != "" {
		record = &traceRecorder{}
	}
	warm, err := d.runPhase(ctx, "warm", func(issue func(poolQuery)) {
		if cfg.trace != "" {
			forEach(len(pool), cfg.concurrency, func(i int) {
				if ctx.Err() == nil {
					issue(pool[i])
				}
			})
			return
		}
		deadline := time.Now().Add(cfg.duration)
		runWorkers(cfg.concurrency, func(w int) {
			r := rand.New(rand.NewSource(cfg.seed + int64(w)*7919))
			zipf := rand.NewZipf(r, cfg.zipfS, 1, uint64(len(pool)-1))
			for time.Now().Before(deadline) && ctx.Err() == nil {
				q := pool[zipf.Uint64()]
				record.add(q)
				issue(q)
			}
		})
	})
	if err != nil {
		return err
	}
	if err := record.write(cfg.traceRecord); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "load: cold %d requests (%d errors) %.0f qps, p50 %.2fms p99 %.2fms\n",
		cold.requests, cold.errors, cold.qps, cold.p50ms, cold.p99ms)
	fmt.Fprintf(stdout, "load: warm %d requests (%d errors) %.0f qps, p50 %.2fms p99 %.2fms, hit rate %.2f\n",
		warm.requests, warm.errors, warm.qps, warm.p50ms, warm.p99ms, warm.cacheHitRate)
	return nil
}

// distinctQueries returns the pool without repeats, first occurrences in
// order. The body names the scheme, so equal bodies ask the same query.
func distinctQueries(pool []poolQuery) []poolQuery {
	seen := make(map[string]bool, len(pool))
	var out []poolQuery
	for _, q := range pool {
		if !seen[q.body] {
			seen[q.body] = true
			out = append(out, q)
		}
	}
	return out
}

// loadSchemeMix builds the self-mode multi-tenant catalog: one scheme per
// band of the chordality taxonomy, including the adversarial grid with no
// polynomial guarantee, all from the deterministic generators so the same
// seed reproduces the same workload bit for bit.
func loadSchemeMix(seed int64, schemeOpts []core.Option) (*core.Registry, error) {
	r := rand.New(rand.NewSource(seed))
	reg := core.NewRegistry()
	reg.Set("tree", gen.RandomTree(r, 200), schemeOpts...)
	reg.Set("dense", gen.CompleteBipartite(6, 10), schemeOpts...)
	// NestedChain is connected by construction; AlphaAcyclic's random
	// forests can split into components, which would make every terminal
	// set straddling two of them an error rather than a measurement.
	reg.Set("alpha", bipartite.FromHypergraph(gen.NestedChain(12, 4)).B, schemeOpts...)
	reg.Set("sparse", gen.RandomConnectedBipartite(r, 40, 30, 0.08), schemeOpts...)
	reg.Set("grid", gen.GridBipartite(6, 6), schemeOpts...)
	return reg, nil
}

// schemeSize is one serveable scheme and its node-id space, discovered
// over the wire so url mode works against any server.
type schemeSize struct {
	name  string
	nodes int
}

// fetchSchemeSizes lists the target's schemes via GET /v1/schemes.
func fetchSchemeSizes(ctx context.Context, base string) ([]schemeSize, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/schemes", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/schemes: status %d", resp.StatusCode)
	}
	var sr httpd.SchemesResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, err
	}
	var out []schemeSize
	for _, s := range sr.Schemes {
		out = append(out, schemeSize{name: s.Name, nodes: s.V1Nodes + s.V2Nodes})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("target serves no schemes")
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// loadMaxTerminals caps the terminal-set size of generated queries: large
// enough to exercise multi-terminal planning, small enough that even the
// adversarial grid answers interactively.
const loadMaxTerminals = 8

// buildQueryPool samples a fixed pool of queries per scheme: distinct
// terminal sets of 2..loadMaxTerminals nodes. The pool is what the warm
// phase's zipf distribution ranges over, so its order is the popularity
// ranking.
func buildQueryPool(seed int64, schemes []schemeSize) []poolQuery {
	r := rand.New(rand.NewSource(seed + 1))
	const perScheme = 32
	var pool []poolQuery
	for _, s := range schemes {
		for q := 0; q < perScheme; q++ {
			k := 2 + r.Intn(loadMaxTerminals-1)
			if k > s.nodes {
				k = s.nodes
			}
			pool = append(pool, makePoolQuery(s.name, distinctInts(r, s.nodes, k)))
		}
	}
	// Interleave schemes so zipf's head is multi-tenant rather than all
	// rank-0..31 queries landing on one scheme.
	sort.SliceStable(pool, func(i, j int) bool {
		return i%perScheme < j%perScheme
	})
	return pool
}

// distinctInts samples k distinct ints in [0, n).
func distinctInts(r *rand.Rand, n, k int) []int {
	seen := map[int]bool{}
	out := make([]int, 0, k)
	for len(out) < k {
		v := r.Intn(n)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// loadDriver issues pool queries against one target and snapshots its
// cache counters around each phase.
type loadDriver struct {
	base   string
	client *http.Client
}

// runPhase measures one phase: wall time, each request's client-observed
// latency, the error count and the target's cache-counter movement.
func (d *loadDriver) runPhase(ctx context.Context, name string, body func(issue func(poolQuery))) (phaseReport, error) {
	before, err := d.cacheCounters(ctx)
	if err != nil {
		return phaseReport{}, fmt.Errorf("-load: stats before %s phase: %w", name, err)
	}
	var mu sync.Mutex
	var latencies []time.Duration
	failed := 0
	start := time.Now()
	body(func(q poolQuery) {
		t0 := time.Now()
		ok := d.issue(ctx, q)
		dt := time.Since(t0)
		mu.Lock()
		latencies = append(latencies, dt)
		if !ok {
			failed++
		}
		mu.Unlock()
	})
	elapsed := time.Since(start)
	after, err := d.cacheCounters(ctx)
	if err != nil {
		return phaseReport{}, fmt.Errorf("-load: stats after %s phase: %w", name, err)
	}

	n := len(latencies)
	if n == 0 {
		return phaseReport{}, fmt.Errorf("-load: %s phase issued no requests", name)
	}
	if failed == n {
		return phaseReport{}, fmt.Errorf("-load: every %s-phase request failed (%d of %d)", name, failed, n)
	}
	rep := phaseReport{
		requests: n,
		errors:   failed,
		qps:      float64(n) / elapsed.Seconds(),
		p50ms:    quantileMS(latencies, 0.50),
		p99ms:    quantileMS(latencies, 0.99),
	}
	if lookups := after.lookups() - before.lookups(); lookups > 0 {
		rep.cacheHitRate = float64(after.hits-before.hits) / float64(lookups)
	}
	return rep, nil
}

// quantileMS returns the q-quantile of samples in milliseconds by the
// nearest-rank rule on the sorted samples, with no interpolation. It sorts
// samples in place.
func quantileMS(samples []time.Duration, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	rank := int(q*float64(len(samples))+0.999999999) - 1
	return float64(samples[max(0, min(rank, len(samples)-1))]) / float64(time.Millisecond)
}

// issue POSTs one query and reports whether it answered 200.
func (d *loadDriver) issue(ctx context.Context, q poolQuery) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		d.base+"/v1/connect", strings.NewReader(q.body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// cacheTotals aggregates the target's cache counters across schemes.
type cacheTotals struct {
	hits, misses, bypasses uint64
}

func (c cacheTotals) lookups() uint64 { return c.hits + c.misses + c.bypasses }

func (d *loadDriver) cacheCounters(ctx context.Context) (cacheTotals, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/stats", nil)
	if err != nil {
		return cacheTotals{}, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return cacheTotals{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return cacheTotals{}, fmt.Errorf("GET /v1/stats: status %d", resp.StatusCode)
	}
	var sr httpd.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return cacheTotals{}, err
	}
	var out cacheTotals
	for _, st := range sr.Schemes {
		out.hits += st.Hits
		out.misses += st.Misses
		out.bypasses += st.Bypasses
	}
	return out, nil
}

// runWorkers runs fn(worker) on n goroutines and waits for all of them.
func runWorkers(n int, fn func(worker int)) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// forEach calls fn(i) for every i in [0, n) on at most workers goroutines
// (GOMAXPROCS when workers <= 0) and returns once every call has.
func forEach(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	runWorkers(min(workers, n), func(int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	})
}

// traceRecorder accumulates the warm-phase query stream. A nil recorder
// is a no-op, so the hot path can call add unconditionally.
type traceRecorder struct {
	mu    sync.Mutex
	lines []string
}

func (t *traceRecorder) add(q poolQuery) {
	if t == nil {
		return
	}
	parts := make([]string, len(q.terms))
	for i, v := range q.terms {
		parts[i] = strconv.Itoa(v)
	}
	t.mu.Lock()
	t.lines = append(t.lines, q.scheme+": "+strings.Join(parts, " "))
	t.mu.Unlock()
}

func (t *traceRecorder) write(path string) error {
	if t == nil || path == "" {
		return nil
	}
	data := strings.Join(t.lines, "\n") + "\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		return fmt.Errorf("-trace-record: %w", err)
	}
	return nil
}

// readTrace parses a recorded trace: one "scheme: id id id" line per
// query ('#' comments and blank lines skipped).
func readTrace(path string) ([]poolQuery, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("-trace: %w", err)
	}
	var pool []poolQuery
	for lineNo, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		scheme, rest, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("-trace: line %d: want \"scheme: id id ...\", got %q", lineNo+1, line)
		}
		fields := strings.Fields(rest)
		terms := make([]int, len(fields))
		for i, f := range fields {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("-trace: line %d: terminal %q: %w", lineNo+1, f, err)
			}
			terms[i] = v
		}
		pool = append(pool, makePoolQuery(strings.TrimSpace(scheme), terms))
	}
	return pool, nil
}
