package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// hostInfo is printed beside every result so host drift stays visible.
type hostInfo struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Trace      bool      `json:"trace"`
	Samples    int       `json:"samples"`
	Answers    int       `json:"answers"`
	TimedS     float64   `json:"timed_s"`
	SetupRunsS []float64 `json:"setup_runs_s"`
	RoundS     []float64 `json:"round_s"`
	GoMaxProcs int       `json:"gomaxprocs"`
	NumCPU     int       `json:"numcpu"`
	GoVersion  string    `json:"go_version"`
	CPUProbeMS float64   `json:"cpu_probe_ms"`
}

// cacheCounts sums the cache counters of every scheme.
type cacheCounts struct {
	hits, misses, evictions, warmFills uint64
	groups, sharedBuilds               uint64
}

func readCache(reg *core.Registry, cat *catalog) cacheCounts {
	var c cacheCounts
	for _, s := range cat.schemes {
		svc, _ := reg.Get(s.name)
		st := svc.Stats()
		c.hits += st.Hits
		c.misses += st.Misses
		c.evictions += st.Evictions
		c.warmFills += st.WarmFills
		groups, builds := svc.PlannerStats()
		c.groups += groups.Count()
		c.sharedBuilds += builds.Count()
	}
	return c
}

func (a cacheCounts) sub(b cacheCounts) cacheCounts {
	return cacheCounts{a.hits - b.hits, a.misses - b.misses, a.evictions - b.evictions,
		a.warmFills - b.warmFills, a.groups - b.groups, a.sharedBuilds - b.sharedBuilds}
}

// runState is one run's state: its inputs, the booted server and the
// per-op record of the timed phase, all allocated before the heap
// baseline so that heap_mb measures the server alone.
type runState struct {
	cfg  config
	in   *inputs
	e    *env
	log  io.Writer
	info hostInfo

	keyOf  []int32 // timed op → distinct-question id
	lat    []time.Duration
	status []int
	dig    []uint64

	// Per key: the first good body awaiting verification, its digest,
	// whether it verified, and its answer methods.
	stored   []atomic.Bool
	body     [][]byte
	keyDig   []uint64
	keyOK    []bool
	keyMeths [][4]int32

	hashSeed maphash.Seed
	verrs    int

	// Traced runs: the server-side spans, when each request was sent
	// (since epoch), and each scheme's snapshot, cache included, at the
	// start of the timed phase.
	spans *serverSpans
	epoch time.Time
	sent  []time.Duration
	state [][]byte
}

// execute performs one run and returns its result line.
func execute(ctx context.Context, cfg config, log io.Writer) (*report, *hostInfo, error) {
	w, err := workloadNamed(cfg.workload)
	if err != nil {
		return nil, nil, err
	}
	in, err := generate(ctx, w, cfg.seed, cfg.seconds, cfg.sizes)
	if err != nil {
		return nil, nil, err
	}
	s := newRunState(cfg, in, log)
	defer func() {
		if s.e != nil {
			_ = s.e.close()
		}
	}()
	setup, heapBase, err := s.setUp()
	if err != nil {
		return nil, nil, err
	}
	before := readCache(s.e.reg, in.cat)
	rounds, rt, err := s.timedPhase(ctx)
	if err != nil {
		return nil, nil, err
	}
	after := readCache(s.e.reg, in.cat)
	heap := float64(int64(liveHeap())-int64(heapBase)) / (1 << 20)

	// Throughput and p50 are medians over the rounds, which damps a
	// transient stall of the host; p99 takes every sample of the run, so
	// that at least ten lie beyond it.
	ok, answers := 0, 0
	lats := make([]time.Duration, 0, len(in.timed))
	var meths [4]int
	var elapsed time.Duration
	var rates, p50s []float64
	for _, r := range rounds {
		roundAnswers := 0
		for i := r.lo; i < r.hi; i++ {
			lats = append(lats, s.lat[i])
			k := s.keyOf[i]
			if s.status[i] != http.StatusOK || !s.keyOK[k] || s.dig[i] != s.keyDig[k] {
				continue
			}
			ok++
			roundAnswers += in.timed[i].answers()
			for m, n := range s.keyMeths[k] {
				meths[m] += int(n)
			}
		}
		answers += roundAnswers
		elapsed += r.d
		rates = append(rates, float64(roundAnswers)/r.d.Seconds())
		p50s = append(p50s, ms(quantile(slices.Clone(s.lat[r.lo:r.hi]), 0.5)))
		s.info.RoundS = append(s.info.RoundS, r.d.Seconds())
	}
	failures := s.assertOutcomes(after.sub(before), readCache(s.e.reg, in.cat), meths)
	for _, f := range failures {
		fmt.Fprintln(log, "perfbench: assertion:", f)
	}
	s.info.Samples = len(lats)
	s.info.Answers = answers
	s.info.TimedS = elapsed.Seconds()
	rep := &report{
		Correct:   ok == len(in.timed) && len(failures) == 0,
		Attempted: len(in.timed),
		Failed:    len(in.timed) - ok,
	}
	if cfg.trace {
		rep.Metrics, err = s.ladder(ctx, after.sub(before), rt, meths, answers)
		if err != nil {
			return nil, nil, err
		}
	} else {
		rep.Metrics = map[string]metric{
			"answers_per_s": {median(rates), "answers/s"},
			"p50_ms":        {median(p50s), "ms"},
			"p99_ms":        {ms(quantile(lats, 0.99)), "ms"},
			"ok_share":      {float64(ok) / float64(len(in.timed)), "ratio"},
			"setup_s":       {setup, "s"},
			"heap_mb":       {heap, "MiB"},
		}
	}
	return rep, &s.info, nil
}

func newRunState(cfg config, in *inputs, log io.Writer) *runState {
	s := &runState{cfg: cfg, in: in, log: log, hashSeed: maphash.MakeSeed(), epoch: time.Now()}
	ids := map[string]int32{}
	s.keyOf = make([]int32, len(in.timed))
	for i := range in.timed {
		k := in.timed[i].key
		id, ok := ids[k]
		if !ok {
			id = int32(len(ids))
			ids[k] = id
		}
		s.keyOf[i] = id
	}
	nKeys := len(ids)
	n := len(in.timed)
	s.lat = make([]time.Duration, n)
	s.status = make([]int, n)
	s.dig = make([]uint64, n)
	s.sent = make([]time.Duration, n)
	s.stored = make([]atomic.Bool, nKeys)
	s.body = make([][]byte, nKeys)
	s.keyDig = make([]uint64, nKeys)
	s.keyOK = make([]bool, nKeys)
	s.keyMeths = make([][4]int32, nKeys)
	if cfg.trace {
		s.spans = newServerSpans(s.epoch, n)
	}
	s.info = hostInfo{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		CPUProbeMS: ms(cpuProbe()),
	}
	return s
}

// setUp boots the server cfg.sizes.setups times and keeps the last one.
// Each boot is timed from the registry build (compile or snapshot load)
// through server start, warm-up and cache fill; setup_s is the median.
// It returns that median and the live heap measured just before the last
// boot.
func (s *runState) setUp() (float64, uint64, error) {
	w := s.in.w
	var runs []float64
	var heapBase uint64
	for i := 0; i < s.cfg.sizes.setups; i++ {
		if s.e != nil {
			if err := s.e.close(); err != nil {
				return 0, 0, err
			}
			s.e = nil
		}
		heapBase = liveHeap()
		start := time.Now()
		e, err := boot(s.in, s.spans)
		if err != nil {
			return 0, 0, err
		}
		s.e = e
		// Set-up drives the server from every CPU; only the timed phase
		// keeps to the workload's client count.
		clients := runtime.GOMAXPROCS(0)
		if w.fill {
			if err := e.fill(s.in, clients); err != nil {
				return 0, 0, err
			}
		}
		if err := e.untimed(s.in.warm, clients); err != nil {
			return 0, 0, fmt.Errorf("warm-up: %w", err)
		}
		runs = append(runs, time.Since(start).Seconds())
	}
	s.info.SetupRunsS = append([]float64(nil), runs...)
	setup := median(runs)
	if s.cfg.trace {
		// The ladder replays from the state the timed phase starts in.
		for _, sc := range s.in.cat.schemes {
			svc, _ := s.e.reg.Get(sc.name)
			var buf bytes.Buffer
			if err := svc.SaveWarmSnapshot(&buf); err != nil {
				return 0, 0, err
			}
			s.state = append(s.state, buf.Bytes())
		}
	}
	return setup, heapBase, nil
}

// round is one timed slice of the op stream, [lo, hi), and its wall time.
type round struct {
	lo, hi int
	d      time.Duration
}

// timedPhase sends the timed ops in rounds. Only the rounds are timed;
// between them the round's answers are verified and the heap is
// collected, so verification never overlaps the measurement. It returns
// the rounds and the runtime counter deltas over them.
func (s *runState) timedPhase(ctx context.Context) ([]round, rtSample, error) {
	n := len(s.in.timed)
	rounds := make([]round, max(1, min(s.cfg.sizes.rounds, n)))
	var rt rtSample
	for r := range rounds {
		lo, hi := r*n/len(rounds), (r+1)*n/len(rounds)
		runtime.GC()
		r0 := readRuntime()
		start := time.Now()
		s.pass(lo, hi)
		rounds[r] = round{lo, hi, time.Since(start)}
		rt = rt.add(readRuntime().sub(r0))
		s.verifyStored(ctx)
	}
	if s.spans != nil {
		if err := s.spans.await(s.tracedOK()); err != nil {
			return nil, rt, err
		}
	}
	return rounds, rt, nil
}

// tracedOK returns the traced ops (every other one) that returned 200.
func (s *runState) tracedOK() []int {
	var out []int
	for i := 0; i < len(s.in.timed); i += 2 {
		if s.status[i] == http.StatusOK {
			out = append(out, i)
		}
	}
	return out
}

// pass sends timed ops [lo, hi) on the workload's closed-loop clients.
// Each latency runs from send to the last response byte. The first good
// body of each not-yet-verified question is kept for verification; every
// body is digested so repeats can be compared with it.
func (s *runState) pass(lo, hi int) {
	forEach(hi-lo, s.in.w.clients, func(buf *bytes.Buffer, j int) {
		i := lo + j
		o := &s.in.timed[i]
		traceID := -1
		if s.spans != nil && i%2 == 0 {
			traceID = i
		}
		start := time.Now()
		s.sent[i] = start.Sub(s.epoch)
		status, err := s.e.send(o, traceID, buf)
		s.lat[i] = time.Since(start)
		if err != nil {
			status = -1
		}
		s.status[i] = status
		if status != http.StatusOK {
			return
		}
		s.dig[i] = maphash.Bytes(s.hashSeed, buf.Bytes())
		if k := s.keyOf[i]; !s.keyOK[k] && s.stored[k].CompareAndSwap(false, true) {
			s.body[k] = bytes.Clone(buf.Bytes())
			s.keyDig[k] = s.dig[i]
		}
	})
}

// verifyStored verifies every body kept by the last pass and releases it.
func (s *runState) verifyStored(ctx context.Context) {
	var todo []int
	for k, b := range s.body {
		if b != nil {
			todo = append(todo, k)
		}
	}
	firstOp := make(map[int32]int, len(todo))
	for i := len(s.in.timed) - 1; i >= 0; i-- {
		if s.body[s.keyOf[i]] != nil {
			firstOp[s.keyOf[i]] = i
		}
	}
	errs := make([]error, len(todo))
	forEach(len(todo), runtime.GOMAXPROCS(0), func(_ *bytes.Buffer, j int) {
		k := todo[j]
		methods, err := verify(ctx, s.in.cat, &s.in.timed[firstOp[int32(k)]], s.body[k])
		if err != nil {
			errs[j] = err
			return
		}
		for _, m := range methods {
			s.keyMeths[k][m]++
		}
		s.keyOK[k] = true
	})
	for j, err := range errs {
		if err != nil && s.verrs < 5 {
			s.verrs++
			fmt.Fprintf(s.log, "perfbench: verify op %s: %v\n", s.in.timed[firstOp[int32(todo[j])]].key, err)
		}
		s.body[todo[j]] = nil
	}
}

// assertOutcomes checks the cache outcomes the workload fixes: they must
// not depend on timing, so any deviation means the workload changed.
func (s *runState) assertOutcomes(d, total cacheCounts, meths [4]int) []string {
	var fails []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			fails = append(fails, fmt.Sprintf(format, args...))
		}
	}
	in := s.in
	answers := 0
	var want [4]int
	groups := 0
	for i := range in.timed {
		o := &in.timed[i]
		answers += o.answers()
		if o.kind == kindInterp {
			continue
		}
		for _, q := range o.queries() {
			want[in.cat.schemes[o.scheme].method(len(q))]++
		}
		if o.kind == kindBatch {
			groups += len(plannerGroups(o.batch))
		}
	}
	switch in.w.name {
	case "hot-hits":
		check(total.misses == 0, "hot-hits: %d misses, want 0", total.misses)
		check(d.hits == uint64(answers), "hot-hits: %d hits, want one per request (%d)", d.hits, answers)
		check(total.warmFills == uint64(in.poolSize), "hot-hits: %d warm fills, want the pool's %d", total.warmFills, in.poolSize)
	case "miss-solve", "batch-overlap":
		check(d.hits == 0, "%s: %d hits, want 0", in.w.name, d.hits)
		check(d.misses == uint64(answers), "%s: %d misses, want %d", in.w.name, d.misses, answers)
		check(d.evictions == uint64(answers), "%s: %d evictions, want %d", in.w.name, d.evictions, answers)
		if in.w.name == "batch-overlap" {
			check(d.sharedBuilds == uint64(groups) && d.groups == uint64(groups),
				"batch-overlap: %d Shared builds over %d planner groups, want %d non-singleton groups", d.sharedBuilds, d.groups, groups)
		}
	case "interp-rank":
		check(d.hits == 0 && d.misses == 0, "interp-rank: %d hits and %d misses, want an uncached path", d.hits, d.misses)
	}
	check(meths == want, "method counts %v (algorithm-2, algorithm-1, exact, heuristic), dispatch rule predicts %v", meths, want)
	return fails
}

// plannerGroups returns the non-singleton groups core's batch planner
// forms, as query indices: queries joined, transitively, by a shared
// terminal.
func plannerGroups(queries [][]int) [][]int {
	parent := make([]int, len(queries))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	owner := map[int]int{}
	for i, q := range queries {
		for _, t := range q {
			if j, ok := owner[t]; ok {
				parent[find(i)] = find(j)
			} else {
				owner[t] = i
			}
		}
	}
	members := map[int][]int{}
	var roots []int
	for i := range queries {
		r := find(i)
		if members[r] == nil {
			roots = append(roots, r)
		}
		members[r] = append(members[r], i)
	}
	var groups [][]int
	for _, r := range roots {
		if len(members[r]) > 1 {
			groups = append(groups, members[r])
		}
	}
	return groups
}
