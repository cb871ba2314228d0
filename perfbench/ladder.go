package main

// The traced run's layer ladder. The loopback pass of the timed phase
// traces every other request (client span, and the handler span nested
// in it). The ladder then replays a prefix of the op stream rung by rung
// from the benchmark's own code, one span per call, each rung starting
// from the cache occupancy the timed phase started from:
//
//	httpd    in-process ServeHTTP (allocations only)
//	core     Service.Connect per query, Service.ConnectBatch per batch,
//	         Connector.Interpretations per interpretation request
//	         Connector.Connect per query
//	steiner  the dispatched *FrozenShared solver and the Algorithm 1
//	         certification; NewShared+Precompute per planner group;
//	         RankedCovers
//	boot     Freeze, ClassifyFrozen, snapshot.Decode, RestoreWarmup
//
// Calls whose difference gives a self time are made back to back for
// each query, in an order that rotates from query to query, so host
// drift and warm caches favour none of them. Allocation counts come from
// separate replays of each call alone.
//
// Every rung starts from a registry restored from the snapshots taken at
// the end of set-up. A rung whose call the workload's requests never make
// (RankedCovers outside interp-rank, the batch rungs outside
// batch-overlap, the connect-level rungs on interp-rank) is an off-path
// probe: the result line carries every per-layer metric, so such a rung
// is timed on a few ops drawn from the run's seed on a stream of their
// own. LAYERS.md lists which figures are probes. Each rung runs on one
// goroutine; its allocation count is the runtime's object-allocation
// delta over the rung divided by its calls.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/chordality"
	"repro/internal/core"
	"repro/internal/snapshot"
	"repro/internal/steiner"
)

// Rung sizes: how much of the op stream each rung replays, and how many
// ops an off-path probe draws.
const (
	ladderQueries = 2000 // connect-level queries
	ladderBatches = 64
	ladderInterps = 400
	probeQueries  = 500
	probeBatches  = 16
	probeInterps  = 100
	bootPasses    = 3
)

// spanRec is one recorded span; spans are kept in memory and written out
// when the run ends.
type spanRec struct {
	Layer  string `json:"layer"`
	Op     int    `json:"op"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

type ladder struct {
	s     *runState
	ctx   context.Context
	spans []spanRec
	m     map[string]metric
}

func (l *ladder) put(name, unit string, v float64) { l.m[name] = metric{Value: v, Unit: unit} }

// end closes the span opened at start and returns its duration.
func (l *ladder) end(layer string, op int, start time.Time) time.Duration {
	d := time.Since(start)
	l.spans = append(l.spans, spanRec{Layer: layer, Op: op, Start: start.Sub(l.s.epoch).Nanoseconds(), Dur: d.Nanoseconds()})
	return d
}

// allocsPer returns the objects allocated since r0, per call.
func allocsPer(r0 rtSample, calls int) float64 {
	return float64(readRuntime().sub(r0).allocObjects) / float64(max(1, calls))
}

// samples are call durations, each tagged with the scheme it ran on.
type samples struct {
	d      []time.Duration
	scheme []int
}

// newSamples sizes the slices up front, so recording inside a rung does
// not add to its allocation count.
func newSamples(n int) *samples {
	return &samples{d: make([]time.Duration, 0, n), scheme: make([]int, 0, n)}
}

func (s *samples) add(d time.Duration, scheme int) {
	s.d = append(s.d, d)
	s.scheme = append(s.scheme, scheme)
}

// p50 is the per-scheme median weighted by each scheme's share of the
// calls. A plain median over a mix of schemes sits in the gap between
// their cost modes whenever two schemes split the calls evenly (tree and
// dense certifications do), and then jumps between modes from run to run.
func (s *samples) p50() time.Duration {
	by := map[int][]time.Duration{}
	for i, d := range s.d {
		by[s.scheme[i]] = append(by[s.scheme[i]], d)
	}
	var sum float64
	for _, g := range by {
		sum += float64(quantile(g, 0.5)) * float64(len(g))
	}
	return time.Duration(sum / float64(max(1, len(s.d))))
}

// ladder produces the per-layer metrics of a traced run from the timed
// phase's spans and counters (d, rt, meths, answers) plus the rung
// replays.
func (s *runState) ladder(ctx context.Context, d cacheCounts, rt rtSample, meths [4]int, answers int) (map[string]metric, error) {
	l := &ladder{s: s, ctx: ctx, m: map[string]metric{}}
	l.loopback()
	l.counters(d, rt, meths, answers)

	src, err := l.sources()
	if err != nil {
		return nil, err
	}
	kind := s.in.w.kind
	var serviceCall time.Duration // p50 of the core call the endpoint makes
	if kind == kindInterp {
		serviceCall, err = l.interpRung(src.interps, true)
		if err == nil {
			_, err = l.queryRungs(src.queries, false)
		}
	} else {
		serviceCall, err = l.queryRungs(src.queries, true)
	}
	if err != nil {
		return nil, err
	}
	batchCall, err := l.batchRung(src.batches)
	if err != nil {
		return nil, err
	}
	if kind == kindBatch {
		serviceCall = batchCall
	}
	if kind != kindInterp {
		if _, err := l.interpRung(src.interps, false); err != nil {
			return nil, err
		}
	}
	l.put("httpd.self_us", "us", l.m["httpd.serve_us"].Value-us(serviceCall))
	if err := l.httpdAllocs(src.own); err != nil {
		return nil, err
	}
	if err := l.boot(); err != nil {
		return nil, err
	}
	return l.m, l.write()
}

// loopback reports the traced loopback pass: client spans, the handler
// spans nested in them, and the tracing overhead against the untraced
// half of the same pass.
func (l *ladder) loopback() {
	s := l.s
	n := len(s.in.timed)
	rtt, serve, self, plain := newSamples(n), newSamples(n), newSamples(n), newSamples(n)
	for i := 1; i < n; i += 2 {
		plain.add(s.lat[i], s.in.timed[i].scheme)
	}
	for _, i := range s.tracedOK() {
		h := time.Duration(s.spans.dur[i].Load())
		sc := s.in.timed[i].scheme
		rtt.add(s.lat[i], sc)
		serve.add(h, sc)
		self.add(s.lat[i]-h, sc)
		l.spans = append(l.spans,
			spanRec{Layer: "loopback", Op: i, Start: s.sent[i].Nanoseconds(), Dur: s.lat[i].Nanoseconds()},
			spanRec{Layer: "httpd", Op: i, Parent: "loopback", Start: s.spans.at[i].Load(), Dur: int64(h)})
	}
	l.put("loopback.rtt_us", "us", us(rtt.p50()))
	l.put("loopback.self_us", "us", us(self.p50()))
	l.put("httpd.serve_us", "us", us(serve.p50()))
	l.put("bench.trace_overhead_us", "us", us(rtt.p50())-us(plain.p50()))
}

// counters reports the timed phase's runtime, cache and method figures.
func (l *ladder) counters(d cacheCounts, rt rtSample, meths [4]int, answers int) {
	n := float64(max(1, answers))
	l.put("runtime.alloc_bytes_per_answer", "B", float64(rt.allocBytes)/n)
	l.put("runtime.gc_cycles_per_kanswer", "count", 1000*float64(rt.gcCycles)/n)
	hitRatio := 0.0
	if d.hits+d.misses > 0 {
		hitRatio = float64(d.hits) / float64(d.hits+d.misses)
	}
	l.put("cache.hit_ratio", "ratio", hitRatio)
	l.put("cache.evictions_per_answer", "ratio", float64(d.evictions)/n)
	total := 0
	for _, c := range meths {
		total += c
	}
	for m, c := range meths {
		share := 0.0
		if total > 0 {
			share = float64(c) / float64(total)
		}
		l.put("core.method_share."+core.Method(m).String(), "ratio", share)
	}
}

// ladderSources are the ops each rung replays: the workload's own, or an
// off-path probe's.
type ladderSources struct {
	own     []op // the workload's own prefix, as sent over HTTP
	queries []op // connect-level queries
	batches []op
	interps []op
}

func (l *ladder) sources() (*ladderSources, error) {
	s := l.s
	src := &ladderSources{}
	probe := newOpGen(s.in.cat, s.cfg.seed^0x9e0be, nil)
	timed := s.in.timed
	switch s.in.w.kind {
	case kindConnect:
		src.own = timed[:min(len(timed), ladderQueries)]
		src.queries = src.own
	case kindBatch:
		src.own = timed[:min(len(timed), ladderBatches)]
		src.batches = src.own
		for _, b := range src.own {
			for _, q := range b.batch {
				src.queries = append(src.queries, connectOp(s.in.cat, b.scheme, q))
			}
		}
	case kindInterp:
		src.own = timed[:min(len(timed), ladderInterps)]
		src.interps = src.own
		src.queries = probe.spread(probeQueries)
	}
	if src.batches == nil {
		src.batches = probe.batches(probeBatches, s.cfg.sizes.batchSize)
	}
	if src.interps == nil {
		src.interps = probe.interps(probeInterps)
	}
	return src, probe.err
}

// registry boots a catalog copy in the state the timed phase started from.
func (l *ladder) registry() (*core.Registry, error) {
	return newRegistry(l.s.in.cat, l.s.state, l.s.in.opts)
}

func (l *ladder) services(reg *core.Registry) []*core.Service {
	out := make([]*core.Service, len(l.s.in.cat.schemes))
	for i, s := range l.s.in.cat.schemes {
		out[i], _ = reg.Get(s.name)
	}
	return out
}

// solve calls the solver core dispatches a query on c to, directly, and
// after Algorithm 2 the Algorithm 1 certification, with one span each. It
// returns the solver's name in the metric names, its duration and the
// certification's (0 when there is none).
func (l *ladder) solve(op int, c *core.Connector, m core.Method, terms []int) (string, time.Duration, time.Duration, error) {
	fb := c.Frozen()
	var name string
	var err error
	start := time.Now()
	switch m {
	case core.MethodAlgorithm2:
		name = "algorithm2"
		_, err = steiner.Algorithm2FrozenShared(l.ctx, fb.G(), terms, nil)
	case core.MethodAlgorithm1:
		name = "algorithm1"
		_, err = steiner.Algorithm1FrozenShared(l.ctx, fb, terms, nil)
	case core.MethodExact:
		name = "exact"
		_, err = steiner.ExactFrozenShared(l.ctx, fb.G(), terms, nil)
	case core.MethodHeuristic:
		name = "heuristic"
		_, err = steiner.ApproximateFrozenShared(l.ctx, fb.G(), terms, nil)
	}
	d := l.end("steiner."+name, op, start)
	if err != nil || m != core.MethodAlgorithm2 || !c.Class().Chordal62 {
		return name, d, 0, err
	}
	start = time.Now()
	_, err = steiner.Algorithm1FrozenShared(l.ctx, fb, terms, nil)
	return name, d, l.end("steiner.certify", op, start), err
}

// queryRungs replays each connect-level query through Service.Connect
// (withService), Connector.Connect and the dispatched solver. With the
// paired calls it gives the self times of Service and of dispatch. It
// returns Service.Connect's p50.
func (l *ladder) queryRungs(qs []op, withService bool) (time.Duration, error) {
	reg, err := l.registry()
	if err != nil {
		return 0, err
	}
	cat := l.s.in.cat
	svcs := l.services(reg)
	n := len(qs)
	svcDur, conn, solve := make([]time.Duration, n), make([]time.Duration, n), make([]time.Duration, n)
	perMethod := map[string]*samples{}
	for _, name := range []string{"algorithm2", "algorithm1", "exact", "heuristic"} {
		perMethod[name] = newSamples(n)
	}
	certify := newSamples(n)
	l.spans = slices.Grow(l.spans, 4*n)
	before := readCache(reg, cat)
	for i := range qs {
		q := &qs[i]
		c := svcs[q.scheme].Connector()
		var errs [3]error
		calls := [3]func(){
			func() {
				if withService {
					start := time.Now()
					_, errs[0] = svcs[q.scheme].Connect(l.ctx, q.terms)
					svcDur[i] = l.end("core.service", i, start)
				}
			},
			func() {
				start := time.Now()
				_, errs[1] = c.Connect(l.ctx, q.terms)
				conn[i] = l.end("core.connector", i, start)
			},
			func() {
				name, d, cert, err := l.solve(i, c, cat.schemes[q.scheme].method(len(q.terms)), q.terms)
				perMethod[name].add(d, q.scheme)
				if cert > 0 {
					certify.add(cert, q.scheme)
				}
				solve[i], errs[2] = d+cert, err
			},
		}
		for j := range calls {
			calls[(i+j)%len(calls)]()
		}
		if err := errors.Join(errs[:]...); err != nil {
			return 0, fmt.Errorf("query rungs on %s: %w", q.key, err)
		}
	}
	d := readCache(reg, cat).sub(before)
	for name, sm := range perMethod {
		l.put("steiner."+name+"_us", "us", us(sm.p50()))
	}
	l.put("steiner.exact_p99_us", "us", us(quantile(perMethod["exact"].d, 0.99)))
	l.put("steiner.certify_us", "us", us(certify.p50()))
	connector, dispatch, service, self := newSamples(n), newSamples(n), newSamples(n), newSamples(n)
	for i, q := range qs {
		connector.add(conn[i], q.scheme)
		dispatch.add(conn[i]-solve[i], q.scheme)
		service.add(svcDur[i], q.scheme)
		// A hit runs no connector; a miss runs it once.
		sd := svcDur[i]
		if d.misses == uint64(n) {
			sd -= conn[i]
		}
		self.add(sd, q.scheme)
	}
	l.put("core.connector_us", "us", us(connector.p50()))
	l.put("core.dispatch_self_us", "us", us(dispatch.p50()))

	// Allocation counts, each call alone.
	r0 := readRuntime()
	for i := range qs {
		if _, _, _, err := l.solve(i, svcs[qs[i].scheme].Connector(), cat.schemes[qs[i].scheme].method(len(qs[i].terms)), qs[i].terms); err != nil {
			return 0, err
		}
	}
	l.put("steiner.allocs_per_op", "count", allocsPer(r0, n))
	r0 = readRuntime()
	for i := range qs {
		if _, err := svcs[qs[i].scheme].Connector().Connect(l.ctx, qs[i].terms); err != nil {
			return 0, err
		}
	}
	l.put("core.connector_allocs_per_op", "count", allocsPer(r0, n))
	if !withService {
		return 0, nil
	}
	// A second copy of the start state, so these calls hit or miss as the
	// timed ones did.
	reg, err = l.registry()
	if err != nil {
		return 0, err
	}
	svcs = l.services(reg)
	r0 = readRuntime()
	for i := range qs {
		if _, err := svcs[qs[i].scheme].Connect(l.ctx, qs[i].terms); err != nil {
			return 0, err
		}
	}
	l.put("core.service_allocs_per_op", "count", allocsPer(r0, n))
	p50 := service.p50()
	l.put("core.service_us", "us", us(p50))
	l.put("core.service_self_us", "us", us(self.p50()))
	return p50, nil
}

// batchRung replays Service.ConnectBatch per batch, times Connector.Connect over each batch's queries on one goroutine, and
// builds each planner group's Shared directly. It returns ConnectBatch's
// p50.
func (l *ladder) batchRung(batches []op) (time.Duration, error) {
	reg, err := l.registry()
	if err != nil {
		return 0, err
	}
	cat := l.s.in.cat
	svcs := l.services(reg)
	before := readCache(reg, cat)
	dur := newSamples(len(batches))
	l.spans = slices.Grow(l.spans, len(batches))
	for i := range batches {
		b := &batches[i]
		start := time.Now()
		res := svcs[b.scheme].ConnectBatch(l.ctx, b.batch)
		dur.add(l.end("core.connect_batch", i, start), b.scheme)
		for _, r := range res {
			if r.Err != nil {
				return 0, fmt.Errorf("batch rung: %w", r.Err)
			}
		}
	}
	d := readCache(reg, cat).sub(before)
	n := float64(max(1, len(batches)))
	l.put("core.planner_groups_per_batch", "count", float64(d.groups)/n)
	l.put("core.shared_builds_per_batch", "count", float64(d.sharedBuilds)/n)

	speedup := make([]float64, len(batches))
	build := newSamples(len(batches))
	for i := range batches {
		b := &batches[i]
		c := svcs[b.scheme].Connector()
		var sum time.Duration
		for _, q := range b.batch {
			start := time.Now()
			if _, err := c.Connect(l.ctx, q); err != nil {
				return 0, fmt.Errorf("batch rung: %w", err)
			}
			sum += l.end("core.connector", i, start)
		}
		speedup[i] = float64(sum) / float64(dur.d[i])
		for _, g := range plannerGroups(b.batch) {
			var terms []int
			rows := false
			for _, qi := range g {
				terms = append(terms, b.batch[qi]...)
				rows = rows || cat.schemes[b.scheme].method(len(b.batch[qi])) == core.MethodHeuristic
			}
			slices.Sort(terms)
			terms = slices.Compact(terms)
			start := time.Now()
			sh := steiner.NewShared(c.Frozen().G())
			err := sh.Precompute(l.ctx, terms, rows)
			build.add(l.end("steiner.shared_build", i, start), b.scheme)
			if err != nil {
				return 0, err
			}
		}
	}
	l.put("core.batch_speedup", "ratio", median(speedup))
	l.put("steiner.shared_build_us", "us", us(build.p50()))
	return dur.p50(), nil
}

// interpRung replays RankedCovers per interpretation request; on
// interp-rank (own) it also replays Connector.Interpretations, the core
// call that endpoint makes, as the core.service rung, paired with
// RankedCovers on the same request.
func (l *ladder) interpRung(ops []op, own bool) (time.Duration, error) {
	reg, err := l.registry()
	if err != nil {
		return 0, err
	}
	svcs := l.services(reg)
	n := len(ops)
	ranked, call, self := newSamples(n), newSamples(n), newSamples(n)
	l.spans = slices.Grow(l.spans, 2*n)
	for i := range ops {
		o := &ops[i]
		c := svcs[o.scheme].Connector()
		var rd, cd time.Duration
		var errs [2]error
		calls := [2]func(){
			func() {
				start := time.Now()
				_, errs[0] = steiner.RankedCovers(l.ctx, c.Graph().G(), o.terms, o.maxAux, o.limit)
				rd = l.end("steiner.ranked", i, start)
			},
			func() {
				if own {
					start := time.Now()
					_, errs[1] = c.Interpretations(l.ctx, o.terms, o.maxAux, o.limit)
					cd = l.end("core.interpretations", i, start)
				}
			},
		}
		calls[i%2]()
		calls[(i+1)%2]()
		if err := errors.Join(errs[:]...); err != nil {
			return 0, fmt.Errorf("interpretation rungs: %w", err)
		}
		ranked.add(rd, o.scheme)
		call.add(cd, o.scheme)
		self.add(cd-rd, o.scheme)
	}
	l.put("steiner.ranked_us", "us", us(ranked.p50()))
	if !own {
		return 0, nil
	}
	r0 := readRuntime()
	for i := range ops {
		o := &ops[i]
		if _, err := svcs[o.scheme].Connector().Interpretations(l.ctx, o.terms, o.maxAux, o.limit); err != nil {
			return 0, fmt.Errorf("interpretations rung: %w", err)
		}
	}
	l.put("core.service_allocs_per_op", "count", allocsPer(r0, n))
	p50 := call.p50()
	l.put("core.service_us", "us", us(p50))
	l.put("core.service_self_us", "us", us(self.p50()))
	return p50, nil
}

// discardWriter is a reusable ResponseWriter that keeps only the status.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// httpdAllocs replays the workload's own requests through ServeHTTP
// in-process (no network) from the timed phase's starting state.
func (l *ladder) httpdAllocs(ops []op) error {
	reg, err := l.registry()
	if err != nil {
		return err
	}
	h := newHandler(reg)
	reqs := make([]*http.Request, len(ops))
	for i := range ops {
		reqs[i], err = http.NewRequest(http.MethodPost, "http://bench"+ops[i].kind.path(), bytes.NewReader(ops[i].body))
		if err != nil {
			return err
		}
		reqs[i].Header.Set("Content-Type", "application/json")
	}
	w := &discardWriter{h: http.Header{}}
	r0 := readRuntime()
	for i, r := range reqs {
		w.status = 0
		h.ServeHTTP(w, r)
		if w.status != http.StatusOK {
			return fmt.Errorf("in-process %s: status %d", ops[i].kind.path(), w.status)
		}
	}
	l.put("httpd.allocs_per_op", "count", allocsPer(r0, len(reqs)))
	return nil
}

// boot times the boot-time layers over the catalog, median of passes:
// Freeze and ClassifyFrozen of every scheme, and Decode plus
// RestoreWarmup of the snapshots of the timed phase's starting state.
func (l *ladder) boot() error {
	snaps := l.s.state
	var freeze, classify, decode, restore []float64
	for p := 0; p < bootPasses; p++ {
		var f, c, d, r time.Duration
		for i, s := range l.s.in.cat.schemes {
			start := time.Now()
			fb := s.graph.Freeze()
			f += l.end("bipartite.freeze", i, start)
			start = time.Now()
			chordality.ClassifyFrozen(fb)
			c += l.end("chordality.classify", i, start)
			start = time.Now()
			snap, err := snapshot.Decode(snaps[i])
			d += l.end("snapshot.decode", i, start)
			if err != nil {
				return err
			}
			svc := core.NewService(core.NewFromSnapshot(snap))
			start = time.Now()
			if n := svc.RestoreWarmup(snap.Warmup); n != len(snap.Warmup) {
				return fmt.Errorf("warm restore of %s installed %d of %d entries", s.name, n, len(snap.Warmup))
			}
			r += l.end("core.warm_restore", i, start)
		}
		freeze, classify = append(freeze, ms(f)), append(classify, ms(c))
		decode, restore = append(decode, ms(d)), append(restore, ms(r))
	}
	l.put("bipartite.freeze_ms", "ms", median(freeze))
	l.put("chordality.classify_ms", "ms", median(classify))
	l.put("snapshot.decode_ms", "ms", median(decode))
	l.put("core.warm_restore_ms", "ms", median(restore))
	return nil
}

// write saves the spans as JSON lines under the trace directory.
func (l *ladder) write() error {
	s := l.s
	if err := os.MkdirAll(s.cfg.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(s.cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", s.cfg.workload, s.cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range l.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
