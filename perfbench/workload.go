package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/httpd"
)

// opKind is the endpoint an op calls.
type opKind uint8

const (
	kindConnect opKind = iota // POST /v1/connect
	kindBatch                 // POST /v1/batch
	kindInterp                // POST /v1/interpretations
)

// path returns the endpoint the kind is sent to.
func (k opKind) path() string {
	switch k {
	case kindBatch:
		return "/v1/batch"
	case kindInterp:
		return "/v1/interpretations"
	}
	return "/v1/connect"
}

// op is one prepared request: what it asks, and the body sent for it.
type op struct {
	kind   opKind
	scheme int     // catalog index
	terms  []int   // connect and interp terminals, sorted
	batch  [][]int // batch queries, each sorted
	maxAux int     // interp only
	limit  int     // interp only
	key    string  // identity: equal keys ask the same question
	body   []byte
}

// answers returns how many answers the op's response carries.
func (o *op) answers() int {
	if o.kind == kindBatch {
		return len(o.batch)
	}
	return 1
}

// queries returns the op's terminal sets: one, or a batch's sixteen.
func (o *op) queries() [][]int {
	if o.kind == kindBatch {
		return o.batch
	}
	return [][]int{o.terms}
}

// workload is one traffic mix the benchmark can run.
type workload struct {
	name    string
	kind    opKind
	clients int // closed-loop clients
	// opsPerSecond sizes the timed phase: --seconds × opsPerSecond ops,
	// so the work of a run is fixed by its arguments, never by a clock.
	opsPerSecond int
	// warmBoot boots the registry from warm snapshots (hot-hits);
	// otherwise every scheme is compiled at boot.
	warmBoot bool
	// fill fills every scheme's answer cache to capacity during set-up.
	fill bool
}

// workloads are the traffic mixes, in BENCHMARK.json order. Why each was
// chosen is recorded there and in LAYERS.md.
var workloads = []*workload{
	// The HTTP and cache-hit path with no solver work.
	{name: "hot-hits", kind: kindConnect, clients: 2, opsPerSecond: 24000, warmBoot: true},
	// The solver and cache-write path: every request misses and evicts.
	// One client: in a five-seed trial, two clients on two vCPUs spread
	// throughput and p50 by 15-20% between runs, one client by 6-10%.
	{name: "miss-solve", kind: kindConnect, clients: 1, opsPerSecond: 1300, fill: true},
	// ConnectBatch, the planner and steiner.Shared, which miss-solve bypasses.
	{name: "batch-overlap", kind: kindBatch, clients: 1, opsPerSecond: 150, fill: true},
	// steiner.RankedCovers, which no other workload reaches.
	{name: "interp-rank", kind: kindInterp, clients: 1, opsPerSecond: 1400},
}

func workloadNamed(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// sizes scales every generated quantity; the self-test shrinks them.
type sizes struct {
	catalog catalogSize
	// poolPerScheme is hot-hits' distinct queries per scheme, a fraction
	// of the default 1024-entry cache.
	poolPerScheme int
	// batchSize is the query count of one batch-overlap request.
	batchSize int
	// rounds splits the timed phase; answers are verified between rounds,
	// outside the timed window.
	rounds int
	// setups is how many times a run boots; setup_s is their median.
	setups int
	// timedOps, when positive, replaces --seconds × the workload's rate.
	timedOps int
	// cacheSize, when positive, replaces the server's default answer-cache
	// capacity.
	cacheSize int
}

var fullSizes = sizes{catalog: fullCatalog, poolPerScheme: loadPoolPerScheme, batchSize: 16, rounds: 16, setups: 3}

// Query traffic taken from chordalctl -load's generator
// (cmd/chordalctl/load.go), the repository's existing load mix: terminal
// sets of 2 to 8 nodes, every size equally likely; a popular pool of 32
// queries per scheme; zipf popularity with exponent 1.2.
const (
	loadMaxTerminals  = 8
	loadPoolPerScheme = 32
	loadZipfS         = 1.2
)

// On the cyclic schemes one query in heuristicOneIn takes 13 to 16
// terminals instead. This is an assumption, not a measurement: the -load
// mix never reaches the heuristic band, which the catalog must cover, and
// one in four gives the heuristic about a tenth of the answers.
const heuristicOneIn = 4

// interpWideNodes sizes interpretation requests per scheme so that each
// stays interactive: with max_aux 2, RankedCovers' p50 was 0.57–0.68 ms
// on the 64–70-node schemes but 2.0 ms on the 121-node alpha scheme and
// 5.4 ms on the 200-node tree, so those two get max_aux 1.
const interpWideNodes = 100

// maxDraws bounds the draws for one never-used terminal set. A scheme
// whose sets of the drawn size are all but used up fails the run's input
// generation, rather than hanging or quietly shifting the size mix.
const maxDraws = 1000

// inputs is everything a run sends and checks, generated from the seed
// before any timing starts.
type inputs struct {
	w   *workload
	cat *catalog
	// opts are the scheme options every boot applies.
	opts []core.Option
	// snaps holds each scheme's warm snapshot (hot-hits only).
	snaps [][]byte
	// fill supplies each scheme's cache-fill queries (fill workloads only).
	fill  *fillSource
	warm  []op
	timed []op
	// poolSize is the number of distinct hot-hits queries (warm fills).
	poolSize int
}

// catalogSeed generates the scheme catalog. It is fixed, not the run's
// seed: a different random tree, α-acyclic component and sparse scheme per
// seed moved miss-solve's p50 by ±17% across five seeds, which would
// drown any change a later optimisation makes. The run's seed drives
// every query stream.
const catalogSeed = 1

// generate builds a run's inputs. The same seed gives the same inputs.
func generate(ctx context.Context, w *workload, seed int64, seconds int, sz sizes) (*inputs, error) {
	cat, err := newCatalog(catalogSeed, sz.catalog)
	if err != nil {
		return nil, err
	}
	in := &inputs{w: w, cat: cat}
	if sz.cacheSize > 0 {
		in.opts = []core.Option{core.WithCacheSize(sz.cacheSize)}
	}
	g := newOpGen(cat, seed^0x5eed, nil)
	n := seconds * w.opsPerSecond
	if sz.timedOps > 0 {
		n = sz.timedOps
	}
	// The untimed warm-up inside set-up sends a tenth of the timed ops.
	warm := max(1, n/10)
	switch w.name {
	case "hot-hits":
		if err := g.hotHits(ctx, in, n, warm, sz); err != nil {
			return nil, err
		}
	case "miss-solve":
		in.warm = g.spread(warm)
		in.timed = g.spread(n)
	case "batch-overlap":
		in.warm = g.batches(warm, sz.batchSize)
		in.timed = g.batches(n, sz.batchSize)
	case "interp-rank":
		in.warm = g.interps(warm)
		in.timed = g.interps(n)
	}
	if g.err != nil {
		return nil, fmt.Errorf("%s at --seconds %d: %w", w.name, seconds, g.err)
	}
	if w.fill {
		// Drawn after, and apart from, the ops above, which it never repeats.
		in.fill = &fillSource{g: newOpGen(cat, seed^0xf111, g.used), ops: make([][]op, len(cat.schemes))}
	}
	return in, nil
}

// opGen draws ops from one seeded stream. used records every connect
// terminal set handed out per scheme, so fill, warm-up and timed queries
// never repeat one another. err is the first failure to find an unused
// set; once it is set the generator only returns placeholders.
type opGen struct {
	r    *rand.Rand
	cat  *catalog
	used []map[string]bool
	err  error
}

// newOpGen starts a stream at seed that shares used, or a new record.
func newOpGen(cat *catalog, seed int64, used []map[string]bool) *opGen {
	if used == nil {
		used = make([]map[string]bool, len(cat.schemes))
		for i := range used {
			used[i] = map[string]bool{}
		}
	}
	return &opGen{r: rand.New(rand.NewSource(seed)), cat: cat, used: used}
}

// fillSource draws each scheme's cache-fill queries on demand from a
// stream of its own. How many it takes to fill every shard of a cache
// depends on the host's shard count, so fill draws come after the measured
// ops and cannot shift them. Drawn queries are kept: every set-up of a run
// sends the same sequence.
type fillSource struct {
	g   *opGen
	ops [][]op
}

// take returns scheme si's first n fill queries.
func (f *fillSource) take(si, n int) ([]op, error) {
	for len(f.ops[si]) < n && f.g.err == nil {
		f.ops[si] = append(f.ops[si], connectOp(f.g.cat, si, f.g.fresh(si, -1)))
	}
	if f.g.err != nil {
		return nil, f.g.err
	}
	return f.ops[si][:n], nil
}

// terminalCount draws a query size for scheme si by the -load rule, 2 to
// 8 terminals; on the cyclic schemes one query in heuristicOneIn takes
// 13 to 16 terminals instead.
func (g *opGen) terminalCount(si int) int {
	s := g.cat.schemes[si]
	k := 2 + g.r.Intn(loadMaxTerminals-1)
	if s.method(k) == core.MethodExact && g.r.Intn(heuristicOneIn) == 0 {
		k = 13 + g.r.Intn(4)
	}
	return min(k, s.size())
}

// fresh draws a terminal set of scheme si, of a size drawn by
// terminalCount, that was never drawn before and contains must (-1 for
// none).
func (g *opGen) fresh(si, must int) []int {
	if g.err != nil {
		return nil
	}
	s := g.cat.schemes[si]
	k := g.terminalCount(si)
	for attempt := 0; attempt < maxDraws; attempt++ {
		seen := map[int]bool{}
		terms := make([]int, 0, k)
		if must >= 0 {
			seen[must] = true
			terms = append(terms, must)
		}
		for len(terms) < k {
			if v := g.r.Intn(s.size()); !seen[v] {
				seen[v] = true
				terms = append(terms, v)
			}
		}
		sort.Ints(terms)
		if key := intsKey(terms); !g.used[si][key] {
			g.used[si][key] = true
			return terms
		}
	}
	g.err = fmt.Errorf("scheme %s has almost no unused %d-terminal sets left", s.name, k)
	return nil
}

// spread returns n never-used connect ops, schemes in round-robin order
// so every run has the same scheme mix.
func (g *opGen) spread(n int) []op {
	out := make([]op, n)
	for i := range out {
		si := i % len(g.cat.schemes)
		out[i] = connectOp(g.cat, si, g.fresh(si, -1))
	}
	return out
}

// batches returns n batch ops of size queries each, schemes in
// round-robin order. Each batch draws two hub terminals and every query
// contains one of them, so the planner forms shared-work groups; every
// query is new.
func (g *opGen) batches(n, size int) []op {
	out := make([]op, n)
	for i := range out {
		si := i % len(g.cat.schemes)
		nodes := g.cat.schemes[si].size()
		a := g.r.Intn(nodes)
		b := (a + 1 + g.r.Intn(nodes-1)) % nodes
		qs := make([][]int, size)
		for j := range qs {
			hub := a
			if j%2 == 1 {
				hub = b
			}
			qs[j] = g.fresh(si, hub)
		}
		out[i] = batchOp(g.cat, si, qs)
	}
	return out
}

// interps returns n interpretation ops, schemes in round-robin order.
// Terminals are 2–3 nodes within distance 2 of a random centre, so short
// connections exist. max_aux is 2 on schemes of up to interpWideNodes
// nodes and 1 on larger ones, where the enumeration of auxiliary node
// pairs is widest; limit is 5.
func (g *opGen) interps(n int) []op {
	out := make([]op, n)
	for i := range out {
		si := i % len(g.cat.schemes)
		s := g.cat.schemes[si]
		center := g.r.Intn(s.size())
		near := nearby(s, center, 2)
		k := min(2+g.r.Intn(2), len(near))
		perm := g.r.Perm(len(near))[:k]
		terms := make([]int, k)
		for j, p := range perm {
			terms[j] = near[p]
		}
		sort.Ints(terms)
		maxAux := 2
		if s.size() > interpWideNodes {
			maxAux = 1
		}
		out[i] = interpOp(g.cat, si, terms, maxAux, 5)
	}
	return out
}

// nearby returns the nodes within distance d of v, v included, ascending.
func nearby(s *scheme, v, d int) []int {
	dist := s.graph.G().BFSDistances(v)
	var out []int
	for u, du := range dist {
		if du >= 0 && du <= d {
			out = append(out, u)
		}
	}
	return out
}

// hotHits builds hot-hits' pool, its warm snapshots and its zipf op
// stream. The pool is answered and persisted before any timing: the timed
// server boots from those snapshots, so every pool query is resident.
func (g *opGen) hotHits(ctx context.Context, in *inputs, n, warm int, sz sizes) error {
	nSchemes := len(g.cat.schemes)
	pool := make([]op, 0, nSchemes*sz.poolPerScheme)
	// Interleave schemes so the zipf head is multi-tenant.
	for j := 0; j < sz.poolPerScheme; j++ {
		for si := range g.cat.schemes {
			pool = append(pool, connectOp(g.cat, si, g.fresh(si, -1)))
		}
	}
	if g.err != nil {
		return g.err
	}
	in.poolSize = len(pool)
	for si, s := range g.cat.schemes {
		svc := core.Open(s.graph.Clone())
		for i := si; i < len(pool); i += nSchemes {
			if _, err := svc.Connect(ctx, pool[i].terms); err != nil {
				return fmt.Errorf("hot-hits pool on %s: %w", s.name, err)
			}
		}
		var buf bytes.Buffer
		if err := svc.SaveWarmSnapshot(&buf); err != nil {
			return fmt.Errorf("hot-hits snapshot of %s: %w", s.name, err)
		}
		in.snaps = append(in.snaps, buf.Bytes())
	}
	z := rand.NewZipf(g.r, loadZipfS, 1, uint64(len(pool)-1))
	draw := func(m int) []op {
		out := make([]op, m)
		for i := range out {
			out[i] = pool[z.Uint64()]
		}
		return out
	}
	in.warm = draw(warm)
	in.timed = draw(n)
	return nil
}

// intsKey renders a sorted id list as a map key.
func intsKey(ids []int) string {
	var b strings.Builder
	for i, v := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the wire types always marshal
	}
	return b
}

func connectOp(cat *catalog, si int, terms []int) op {
	name := cat.schemes[si].name
	return op{kind: kindConnect, scheme: si, terms: terms, key: "c/" + name + "/" + intsKey(terms),
		body: mustJSON(httpd.ConnectRequest{Scheme: name, Terminals: terms})}
}

func batchOp(cat *catalog, si int, qs [][]int) op {
	name := cat.schemes[si].name
	keys := make([]string, len(qs))
	for i, q := range qs {
		keys[i] = intsKey(q)
	}
	return op{kind: kindBatch, scheme: si, batch: qs, key: "b/" + name + "/" + strings.Join(keys, ";"),
		body: mustJSON(httpd.BatchRequest{Scheme: name, Queries: qs})}
}

func interpOp(cat *catalog, si int, terms []int, maxAux, limit int) op {
	name := cat.schemes[si].name
	return op{kind: kindInterp, scheme: si, terms: terms, maxAux: maxAux, limit: limit,
		key:  fmt.Sprintf("i/%s/%s/%d/%d", name, intsKey(terms), maxAux, limit),
		body: mustJSON(httpd.InterpretationsRequest{Scheme: name, Terminals: terms, MaxAux: maxAux, Limit: limit})}
}
