// Command chordalctl classifies a bipartite graph (or a hypergraph via its
// incidence graph) against the paper's taxonomy: (4,1)/(6,2)/(6,1)
// chordality, Vi-chordality and Vi-conformity, and the acyclicity degrees
// of both associated hypergraphs, with witnesses where available.
//
// It can also serve minimal-connection query batches: with -batch the
// scheme is compiled once (frozen CSR view + classification) and the
// queries are answered concurrently through the cached core.Service. With
// -registry one process serves several named schemes at once through a
// core.Registry. With -serve the registry is exposed over HTTP (the JSON
// API of internal/httpd: POST /v1/connect, /v1/batch, /v1/interpretations,
// GET /v1/schemes, /v1/stats, plus the admin trio GET
// /v1/schemes/{name}/snapshot, PUT and DELETE /v1/schemes/{name}) until
// SIGINT/SIGTERM, with graceful shutdown; a single scheme file is served
// under the name "default".
//
// Compiled epochs persist: -compile writes the frozen CSR view plus
// classification as an internal/snapshot binary catalog file, and every
// file a -registry spec names may be either a textual scheme or such a
// .snap file (sniffed by magic, not extension) — snapshots boot with zero
// recompilation. Catalog entries compile/load concurrently on the
// -workers pool; -v reports per-scheme timing and provenance on stderr.
// -compile -warm queries.txt additionally answers the query file (same
// line format as -batch) through a Service and persists the settled
// answers as the snapshot's warmup section: a process booting the
// snapshot starts with those answers already cached, visible as
// warm_fills in /v1/stats.
//
// With -load the tool becomes a load harness: "-load self" boots an
// in-process server over a deterministic multi-tenant scheme mix (one
// generator per band of the chordality taxonomy, including the
// adversarial grid), "-load http://host:port" drives an external server.
// The harness runs a cold pass (every pool query once — all compulsory
// misses) then a warm pass (zipfian popularity over the pool for
// -load-duration, or a -trace replay) and prints cold/warm QPS with the
// p50 and p99 of the client-observed request latencies. -trace-record
// captures the warm-phase stream for later replay. The repository's
// benchmark is perfbench, not this harness.
//
// Usage:
//
//	chordalctl [-hypergraph] [-json] [file]
//	chordalctl -compile out.snap [-hypergraph] [-warm queries.txt] [file]
//	chordalctl -batch queries.txt [-workers n] [-timeout d] [-cache-shards n] [-cpuprofile f] [-memprofile f] [file]
//	chordalctl -registry name=file[,name=file...] [-batch queries.txt] [-workers n] [-timeout d] [-cache-shards n]
//	chordalctl -serve addr [-registry name=file,...] [-max-inflight n] [-max-terminals n] [-cache-shards n] [-trace-sample p] [-slow-query-ms n] [-log-format json|text] [-cpuprofile f] [-memprofile f] [file]
//	chordalctl -load self|url [-load-duration d] [-load-concurrency n] [-zipf-s s] [-seed n] [-trace f | -trace-record f] [-cache-shards n]
//
// A flag takes one dash or two, and the scheme file may come before,
// between or after the flags; -h lists every flag.
//
// -cpuprofile and -memprofile write pprof profiles of a serving run:
// the CPU profile spans scheme compilation through the last answer (for
// -serve, until graceful shutdown), and the heap profile is taken at
// exit after a final GC, so it shows the live set — pooled solver
// scratch, compiled views, cached answers — not transient garbage. Both
// flags require -batch or -serve; profiling a bare describe or -compile
// run would mostly measure file parsing.
//
// A -serve run traces every request end to end (W3C traceparent in,
// ctx-propagated phase spans through limiter, decode, cache, planner,
// solver and render). -trace-sample sets the head-sampling probability
// (default 0); traces of errored requests and of queries slower than
// -slow-query-ms (default 500, 0 disables) are always retained. Recent
// retained traces are served on GET /v1/traces, and each slow query
// additionally emits a structured forensic log line with its full phase
// breakdown. Request and slow-query logs go to stderr as log/slog lines
// in -log-format (text by default, json for machine ingestion), stamped
// with the request's trace id.
//
// -cache-shards splits each scheme's answer cache into n shards (rounded
// up to a power of two; default: GOMAXPROCS, at most 64). Hits take no
// lock; misses and fills serialize on their shard's mutex, so raise it
// when a profiler shows that mutex contended at high miss rates. A full
// shard evicts by cost-aware sampled recency, which is plain LRU only
// while every recorded solve cost is under ~0.5 ms; with 1 shard that
// rule runs over the whole cache. Per-shard occupancy is visible in
// GET /v1/stats.
//
// Reads the graph from the file or standard input ("-batch -" reads the
// queries from standard input instead; the graph must then come from a
// file). Each query line lists the terminal node labels of one query,
// whitespace-separated ('#' starts a comment); in registry mode the line
// starts with the scheme name and a colon:
//
//	library: reader book
//	payroll: ename floor
//
// Per-query failures (unknown labels, disconnected terminals, deadline
// expiry, ...) do not abort the batch: each one is reported on standard
// error with its query-file line number, the remaining queries still run,
// and the process exits with status 2 (status 1 is reserved for fatal
// errors such as an unreadable graph). -timeout bounds the whole batch;
// the solvers observe the deadline inside their hot loops.
package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/graphio"
	"repro/internal/httpd"
	"repro/internal/hypergraph"
	"repro/internal/snapshot"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		var be *batchError
		if errors.As(err, &be) {
			fmt.Fprintln(os.Stderr, "chordalctl:", err)
			os.Exit(2)
		}
		fatal(err)
	}
}

// batchError reports how many queries of a batch failed; it maps to exit
// status 2 so scripts can tell per-query failures (some answers are still
// usable) from fatal errors (status 1, nothing ran).
type batchError struct {
	failed, total int
}

func (e *batchError) Error() string {
	return fmt.Sprintf("%d of %d queries failed (diagnostics above)", e.failed, e.total)
}

// run implements the tool; factored out of main for tests.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) (retErr error) {
	var hyper, jsonOut, verbose bool
	var batch, registry, serve, compile, warm, cpuprofile, memprofile, logFormat string
	var workers, maxInFlight, maxTerminals, cacheShards int
	var traceSample float64
	var slowQueryMS int64
	var timeout time.Duration
	var load loadConfig
	fs := flag.NewFlagSet("chordalctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.BoolVar(&hyper, "hypergraph", false, "read a hypergraph and use its incidence graph")
	fs.BoolVar(&jsonOut, "json", false, "print the classification report as JSON")
	fs.BoolVar(&verbose, "v", false, "report compile timing, and each registry scheme's provenance, on stderr")
	fs.BoolVar(&verbose, "verbose", false, "same as -v")
	fs.StringVar(&compile, "compile", "", "write the compiled scheme as a snapshot `file`")
	fs.StringVar(&warm, "warm", "", "with -compile: answer the query `file` into the snapshot's warmup section")
	fs.StringVar(&serve, "serve", "", "serve the schemes over HTTP on `addr`")
	fs.IntVar(&maxInFlight, "max-inflight", httpd.DefaultMaxInFlight, "with -serve: concurrent-request bound (<= 0: unlimited)")
	fs.IntVar(&maxTerminals, "max-terminals", 0, "terminals allowed per query (0: no limit)")
	fs.IntVar(&cacheShards, "cache-shards", 0, "answer-cache shards per scheme, rounded up to a power of two (default GOMAXPROCS, at most 64)")
	fs.Float64Var(&traceSample, "trace-sample", 0, "with -serve: head-sampling probability of request traces, in [0,1]")
	fs.Int64Var(&slowQueryMS, "slow-query-ms", 500, "with -serve: slow-query threshold in milliseconds (0 disables)")
	fs.StringVar(&logFormat, "log-format", "text", "with -serve: log format, json or text")
	fs.StringVar(&cpuprofile, "cpuprofile", "", "write a CPU profile of the serving run to `file`")
	fs.StringVar(&memprofile, "memprofile", "", "write a heap profile at exit to `file`")
	fs.StringVar(&batch, "batch", "", "answer the queries of `file` (- for standard input)")
	fs.StringVar(&registry, "registry", "", "load one scheme per `name=file,...` pair")
	fs.IntVar(&workers, "workers", 0, "concurrent workers (0: GOMAXPROCS)")
	fs.DurationVar(&timeout, "timeout", 0, "deadline of the whole run (0: none)")
	fs.StringVar(&load.target, "load", "", "run the load harness against `target`: self or an http(s) base URL")
	fs.DurationVar(&load.duration, "load-duration", 2*time.Second, "with -load: warm-phase length")
	fs.IntVar(&load.concurrency, "load-concurrency", 8, "with -load: client workers")
	fs.Float64Var(&load.zipfS, "zipf-s", 1.2, "with -load: zipf exponent of warm-phase popularity (> 1)")
	fs.Int64Var(&load.seed, "seed", 1, "with -load: workload seed")
	fs.StringVar(&load.trace, "trace", "", "with -load: replay the warm phase from trace `file`")
	fs.StringVar(&load.traceRecord, "trace-record", "", "with -load: record the warm-phase stream to `file`")

	// Parse again after each positional argument, so the scheme file may
	// come before, between or after the flags.
	var files []string
	for {
		if err := fs.Parse(args); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				return nil
			}
			return err
		}
		if fs.NArg() == 0 {
			break
		}
		files = append(files, fs.Arg(0))
		args = fs.Args()[1:]
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case set["cache-shards"] && cacheShards < 1:
		return fmt.Errorf("-cache-shards: count must be >= 1 (rounded up to a power of two)")
	case traceSample < 0 || traceSample > 1:
		return fmt.Errorf("-trace-sample: probability must be in [0,1]")
	case slowQueryMS < 0:
		return fmt.Errorf("-slow-query-ms: must be >= 0 (0 disables)")
	case logFormat != "json" && logFormat != "text":
		return fmt.Errorf("-log-format: want json or text, got %q", logFormat)
	case load.duration <= 0:
		return fmt.Errorf("-load-duration: must be positive")
	case load.concurrency < 1:
		return fmt.Errorf("-load-concurrency: count must be >= 1")
	case load.zipfS <= 1:
		return fmt.Errorf("-zipf-s: exponent must be > 1")
	}
	serveObsFlagSet := set["trace-sample"] || set["slow-query-ms"] || set["log-format"]
	loadFlagSet := set["load-duration"] || set["load-concurrency"] || set["zipf-s"] ||
		set["seed"] || set["trace"] || set["trace-record"]

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	var schemeOpts []core.Option
	if maxTerminals > 0 {
		schemeOpts = append(schemeOpts, core.WithMaxTerminals(maxTerminals))
	}
	if cacheShards > 0 {
		// Answer-cache lock sharding for every scheme this process
		// serves, batch and HTTP alike (PUT-uploaded schemes inherit it
		// via the serve config).
		schemeOpts = append(schemeOpts, core.WithCacheShards(cacheShards))
	}

	// Reject flag combinations that would otherwise be silently ignored —
	// a server quietly discarding the user's query file is worse than an
	// error.
	if load.target != "" {
		switch {
		case serve != "":
			return fmt.Errorf("-load is incompatible with -serve (point -load at the server's URL instead)")
		case batch != "":
			return fmt.Errorf("-load is incompatible with -batch (the harness generates its own workload)")
		case compile != "":
			return fmt.Errorf("-load is incompatible with -compile")
		case registry != "":
			return fmt.Errorf("-load self builds its own scheme mix; -registry does not apply")
		case jsonOut || hyper:
			return fmt.Errorf("-json/-hypergraph do not apply to -load")
		case workers > 0:
			return fmt.Errorf("-workers does not apply to -load (use -load-concurrency)")
		case load.trace != "" && load.traceRecord != "":
			return fmt.Errorf("-trace-record records the generated stream; it cannot be combined with -trace replay")
		case load.target != "self" && !strings.HasPrefix(load.target, "http://") && !strings.HasPrefix(load.target, "https://"):
			return fmt.Errorf("-load target must be \"self\" or an http(s) base URL, got %q", load.target)
		}
	} else if loadFlagSet {
		return fmt.Errorf("-load-duration/-load-concurrency/-zipf-s/-seed/-trace/-trace-record only apply to -load")
	}
	if serve != "" && batch != "" {
		return fmt.Errorf("-batch is incompatible with -serve (use POST /v1/batch against the server)")
	}
	if serve != "" && jsonOut {
		return fmt.Errorf("-json is incompatible with -serve (every endpoint already answers JSON)")
	}
	if serve == "" && set["max-inflight"] {
		return fmt.Errorf("-max-inflight only applies to -serve")
	}
	if serve == "" && serveObsFlagSet {
		return fmt.Errorf("-trace-sample/-slow-query-ms/-log-format only apply to -serve")
	}
	if cacheShards > 0 && serve == "" && batch == "" && registry == "" && load.target == "" {
		// Covers plain describe/-json and -compile alike: no Service (and
		// so no answer cache) is ever built there, and a silently ignored
		// tuning flag is worse than an error.
		return fmt.Errorf("-cache-shards is a serving knob; it requires -serve, -batch, -registry or -load")
	}
	if (cpuprofile != "" || memprofile != "") && serve == "" && batch == "" {
		// Covers describe/-json/-compile and batch-less -registry: none of
		// them runs the solver hot paths worth profiling.
		return fmt.Errorf("-cpuprofile/-memprofile profile a serving run; they require -batch or -serve")
	}
	if cpuprofile != "" || memprofile != "" {
		stop, err := startProfiles(cpuprofile, memprofile)
		if err != nil {
			return err
		}
		// The batch paths return non-nil for per-query failures; profiles
		// of partially failed batches are still valid, so only surface a
		// profile-write error when the run itself succeeded.
		defer func() {
			if err := stop(); err != nil && retErr == nil {
				retErr = err
			}
		}()
	}
	if compile != "" {
		switch {
		case serve != "":
			return fmt.Errorf("-compile is incompatible with -serve (compile first, then serve the .snap)")
		case batch != "":
			return fmt.Errorf("-compile is incompatible with -batch")
		case registry != "":
			return fmt.Errorf("-compile takes a single scheme; compile registry entries one at a time")
		case jsonOut:
			return fmt.Errorf("-compile is incompatible with -json")
		case maxTerminals > 0:
			// A snapshot persists the epoch, not serving budgets: accepting
			// the flag here would silently drop it.
			return fmt.Errorf("-max-terminals is a load-time budget; pass it to -serve/-registry when loading the snapshot")
		case workers > 0:
			return fmt.Errorf("-workers does not apply to -compile")
		case timeout > 0:
			return fmt.Errorf("-timeout does not apply to -compile")
		}
		return runCompile(compile, warm, files, stdin, stdout, stderr, hyper, verbose)
	}
	if warm != "" {
		return fmt.Errorf("-warm pre-answers queries into a -compile snapshot; it requires -compile")
	}

	if load.target != "" {
		return runLoad(ctx, load, stdout, stderr, schemeOpts)
	}

	if serve != "" {
		if workers > 0 {
			// In serve mode -workers bounds each scheme's /v1/batch pool
			// (and, below, the catalog-load pool).
			schemeOpts = append(schemeOpts, core.WithWorkers(workers))
		}
		var reg *core.Registry
		if registry != "" {
			var err error
			reg, err = loadRegistry(registry, hyper, workers, verboseTo(verbose, stderr), schemeOpts...)
			if err != nil {
				return err
			}
		} else {
			in := stdin
			if len(files) > 0 {
				f, err := os.Open(files[0])
				if err != nil {
					return err
				}
				defer f.Close()
				in = f
			}
			b, err := readScheme(in, hyper)
			if err != nil {
				return err
			}
			reg = core.NewRegistry()
			reg.Set("default", b, schemeOpts...)
		}
		return runServe(ctx, serveConfig{
			addr: serve, maxInFlight: maxInFlight, schemeOpts: schemeOpts,
			traceSample: traceSample,
			slowQuery:   time.Duration(slowQueryMS) * time.Millisecond,
			logFormat:   logFormat,
		}, reg, stdout, stderr)
	}

	if registry != "" {
		return runRegistry(ctx, registry, batch, stdin, stdout, stderr, workers, hyper, verbose, schemeOpts)
	}

	in := stdin
	if len(files) > 0 {
		f, err := os.Open(files[0])
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	b, err := readScheme(in, hyper)
	if err != nil {
		return err
	}

	if batch != "" {
		qin := stdin
		if batch != "-" {
			qf, err := os.Open(batch)
			if err != nil {
				return err
			}
			defer qf.Close()
			qin = qf
		} else if len(files) == 0 {
			return fmt.Errorf("-batch -: queries on stdin require the graph from a file")
		}
		svc := core.Open(b, schemeOpts...)
		queries, err := parseQueries(qin, false, func(name string) (*core.Service, error) {
			return svc, nil
		})
		if err != nil {
			return err
		}
		if err := answerBatch(ctx, queries, stdout, stderr, workers); err != nil {
			return err
		}
		st := svc.Stats()
		fmt.Fprintf(stdout, "answered %d queries (%d cache hits, %d misses, %d cache shards)\n",
			len(queries), st.Hits, st.Misses, st.Shards)
		if n := countFailed(queries); n > 0 {
			return &batchError{failed: n, total: len(queries)}
		}
		return nil
	}

	if jsonOut {
		return graphio.WriteReport(stdout, b)
	}
	describeScheme(stdout, core.New(b, schemeOpts...))
	return nil
}

// startProfiles begins CPU profiling (when cpuFile is non-empty) and
// returns a stop function that ends it and writes the heap profile (when
// memFile is non-empty). The heap dump follows a forced GC so it reports
// the retained live set — compiled frozen views, pooled solver scratch,
// cached answers — rather than collectable garbage.
func startProfiles(cpuFile, memFile string) (stop func() error, err error) {
	var cpu *os.File
	if cpuFile != "" {
		f, err := os.Create(cpuFile)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		cpu = f
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("-cpuprofile: %w", err)
			}
		}
		if memFile != "" {
			f, err := os.Create(memFile)
			if err != nil {
				return fmt.Errorf("-memprofile: %w", err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return fmt.Errorf("-memprofile: %w", err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("-memprofile: %w", err)
			}
		}
		return nil
	}, nil
}

// readScheme reads a bipartite graph, or a hypergraph rendered as its
// incidence graph when hyper is set.
func readScheme(in io.Reader, hyper bool) (*bipartite.Graph, error) {
	if hyper {
		h, err := graphio.ReadHypergraph(in)
		if err != nil {
			return nil, err
		}
		return bipartite.FromHypergraph(h).B, nil
	}
	return graphio.ReadBipartite(in)
}

// describeScheme prints the classification report for one compiled scheme
// (taking the Connector avoids recompiling what the caller already has).
func describeScheme(stdout io.Writer, conn *core.Connector) {
	fb := conn.Frozen()
	fmt.Fprintf(stdout, "graph: %d nodes (%d in V1, %d in V2), %d arcs\n",
		fb.N(), len(fb.V1()), len(fb.V2()), fb.M())
	fmt.Fprint(stdout, conn.Describe())

	cl := conn.Class()
	d1, d2 := cl.Degrees()
	fmt.Fprintf(stdout, "H1 (nodes=V1, edges=V2 neighbourhoods): %s\n", d1)
	fmt.Fprintf(stdout, "H2 (nodes=V2, edges=V1 neighbourhoods): %s\n", d2)
	if cl.Chordal41 {
		return // a forest is every other class too: no witness to find
	}
	printWitnesses(stdout, "H1", fb.HypergraphV1().H, cl.Chordal62, cl.V1Conformal)
	printWitnesses(stdout, "H2", fb.HypergraphV2().H, cl.Chordal62, cl.V2Conformal)
}

// verboseTo returns w when verbose is set, nil otherwise — the sink
// loadRegistry reports per-scheme timing to.
func verboseTo(verbose bool, w io.Writer) io.Writer {
	if verbose {
		return w
	}
	return nil
}

// runCompile compiles one scheme (freeze + classify) and persists the
// epoch as an internal/snapshot catalog file, so later -registry/-serve
// runs (or PUT uploads) boot it with zero recompilation. Serving budgets
// (-max-terminals, -workers) are deliberately not accepted here: they are
// load-time options, not part of the epoch. With -warm the query file is
// answered through a Service first and the settled answers ride along as
// the snapshot's warmup section, so whatever loads the snapshot boots with
// those answers already cached.
func runCompile(out, warm string, files []string, stdin io.Reader, stdout, stderr io.Writer, hyper, verbose bool) error {
	in := stdin
	if len(files) > 0 {
		f, err := os.Open(files[0])
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	b, err := readScheme(in, hyper)
	if err != nil {
		return err
	}
	start := time.Now()
	conn := core.New(b)
	var data []byte
	warmed := 0
	if warm != "" {
		svc := core.NewService(conn)
		if err := warmService(svc, warm); err != nil {
			return err
		}
		entries := svc.WarmupEntries()
		warmed = len(entries)
		data = snapshot.EncodeWarm(conn.Frozen(), conn.Class(), entries)
	} else {
		data = snapshot.Encode(conn.Frozen(), conn.Class())
	}
	if err := writeFileAtomic(out, data); err != nil {
		return err
	}
	if verbose {
		fmt.Fprintf(stderr, "chordalctl: compiled in %v\n", time.Since(start).Round(time.Microsecond))
	}
	fmt.Fprintf(stdout, "chordalctl: compiled %d nodes, %d arcs -> %s (%d bytes, format v%d)\n",
		b.N(), b.M(), out, len(data), snapshot.Version)
	if warm != "" {
		fmt.Fprintf(stdout, "chordalctl: warmed %d cache entries from %s\n", warmed, warm)
	}
	return nil
}

// writeFileAtomic replaces path with data (mode 0644) so that a crash or
// a full disk at any point leaves either the previous file or the whole
// new one: the bytes go to a temporary file in the same directory, which
// is synced and then renamed over path. The temporary file is removed on
// any failure.
func writeFileAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// warmService answers every query of the -warm file through svc so the
// answers settle into its cache. Warming is a build step, not serving:
// any failing line (unknown label, disconnected terminals) aborts the
// compile rather than silently persisting a partial warmup.
func warmService(svc *core.Service, warmFile string) error {
	f, err := os.Open(warmFile)
	if err != nil {
		return err
	}
	defer f.Close()
	queries, err := parseQueries(f, false, func(string) (*core.Service, error) { return svc, nil })
	if err != nil {
		return err
	}
	for _, q := range queries {
		if q.err != nil {
			return fmt.Errorf("-warm %s line %d (%s): %w", warmFile, q.lineNo, q.display, q.err)
		}
		if _, err := svc.Connect(context.Background(), q.terms); err != nil {
			return fmt.Errorf("-warm %s line %d (%s): %w", warmFile, q.lineNo, q.display, err)
		}
	}
	return nil
}

// regSpecEntry is one parsed name=file pair of a -registry spec.
type regSpecEntry struct {
	name, file string
}

// parseRegistrySpec splits and validates a -registry spec. Duplicate names
// are rejected up front: entries install concurrently, so "later wins"
// would otherwise become a race.
func parseRegistrySpec(spec string) ([]regSpecEntry, error) {
	var entries []regSpecEntry
	seen := map[string]bool{}
	for _, pair := range strings.Split(spec, ",") {
		name, file, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" || file == "" {
			return nil, fmt.Errorf("-registry: bad scheme spec %q (want name=file)", pair)
		}
		if seen[name] {
			return nil, fmt.Errorf("-registry: scheme %q named twice", name)
		}
		seen[name] = true
		entries = append(entries, regSpecEntry{name: name, file: file})
	}
	return entries, nil
}

// loadRegistry installs every name=file scheme of the spec into a fresh
// core.Registry, applying opts to each. Files are sniffed: a snapshot
// (internal/snapshot magic) loads with zero recompilation, anything else
// parses as a textual scheme and compiles live. Entries load concurrently
// on at most workers goroutines (GOMAXPROCS when non-positive) — compiles
// are CPU-bound and independent, so a large catalog boots in
// max-scheme-time, not sum. When verbose is non-nil, per-scheme wall time
// and provenance are reported to it.
func loadRegistry(spec string, hyper bool, workers int, verbose io.Writer, opts ...core.Option) (*core.Registry, error) {
	entries, err := parseRegistrySpec(spec)
	if err != nil {
		return nil, err
	}
	reg := core.NewRegistry()
	errs := make([]error, len(entries))
	var vmu sync.Mutex // serializes verbose lines, not the loads
	forEach(len(entries), workers, func(i int) {
		e := entries[i]
		start := time.Now()
		source, err := loadRegistryEntry(reg, e, hyper, opts)
		if err != nil {
			errs[i] = err
			return
		}
		if verbose != nil {
			vmu.Lock()
			fmt.Fprintf(verbose, "chordalctl: scheme %q: %s from %s in %v\n",
				e.name, source, e.file, time.Since(start).Round(time.Microsecond))
			vmu.Unlock()
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// loadRegistryEntry installs one catalog entry and reports its provenance
// ("compiled" or "snapshot-v<N>").
func loadRegistryEntry(reg *core.Registry, e regSpecEntry, hyper bool, opts []core.Option) (string, error) {
	data, err := os.ReadFile(e.file)
	if err != nil {
		return "", err
	}
	if snapshot.IsSnapshot(data) {
		if _, err := reg.LoadSnapshot(e.name, data, opts...); err != nil {
			return "", fmt.Errorf("scheme %q: %w", e.name, err)
		}
	} else {
		b, err := readScheme(bytes.NewReader(data), hyper)
		if err != nil {
			return "", fmt.Errorf("scheme %q: %w", e.name, err)
		}
		reg.Set(e.name, b, opts...)
	}
	return reg.Source(e.name), nil
}

// runRegistry loads every name=file scheme into a core.Registry and either
// describes the catalog (no -batch) or serves the query batch against it.
func runRegistry(ctx context.Context, spec, batch string, stdin io.Reader, stdout, stderr io.Writer, workers int, hyper, verbose bool, opts []core.Option) error {
	reg, err := loadRegistry(spec, hyper, workers, verboseTo(verbose, stderr), opts...)
	if err != nil {
		return err
	}

	if batch == "" {
		for _, name := range reg.Names() {
			svc, _ := reg.Get(name)
			fmt.Fprintf(stdout, "=== scheme %q (epoch %d)\n", name, reg.Epoch(name))
			describeScheme(stdout, svc.Connector())
		}
		return nil
	}

	qin := stdin
	if batch != "-" {
		qf, err := os.Open(batch)
		if err != nil {
			return err
		}
		defer qf.Close()
		qin = qf
	}
	queries, err := parseQueries(qin, true, func(name string) (*core.Service, error) {
		if name == "" {
			return nil, fmt.Errorf("registry mode needs a \"scheme:\" prefix on every query line")
		}
		svc, ok := reg.Get(name)
		if !ok {
			return nil, fmt.Errorf("%w: %q", core.ErrUnknownScheme, name)
		}
		return svc, nil
	})
	if err != nil {
		return err
	}
	if err := answerBatch(ctx, queries, stdout, stderr, workers); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "answered %d queries over %d schemes\n", len(queries), reg.Len())
	if n := countFailed(queries); n > 0 {
		return &batchError{failed: n, total: len(queries)}
	}
	return nil
}

// batchQuery is one parsed query line and, after answerBatch, its outcome.
type batchQuery struct {
	lineNo  int
	display string        // the query as the user wrote it (for diagnostics)
	svc     *core.Service // scheme it runs against; nil when resolution failed
	terms   []int
	err     error // parse/resolve error, later the query outcome
	conn    core.Connection
}

// parseQueries reads one query per line ('#' comments, blank lines
// skipped). With prefixed set (registry mode) each line starts with a
// "scheme:" prefix, which resolve maps to the Service answering the line
// ("" when absent); without it the whole line is terminal labels, so
// labels containing ':' stay intact. Label resolution uses the resolved
// scheme's graph. Resolution and label failures are recorded per query,
// not returned — only I/O errors abort.
func parseQueries(r io.Reader, prefixed bool, resolve func(scheme string) (*core.Service, error)) ([]batchQuery, error) {
	var queries []batchQuery
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		// Scan strips '\n' but not '\r': a CRLF file would otherwise leak a
		// carriage return into the last label or a scheme name (and from
		// there into diagnostics). Interior '\r' is whitespace to Fields
		// already; make it so for the scheme prefix too.
		line = strings.ReplaceAll(line, "\r", " ")
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		scheme := ""
		rest := line
		if prefixed {
			if name, after, ok := strings.Cut(line, ":"); ok {
				scheme, rest = strings.TrimSpace(name), after
			}
		}
		labels := strings.Fields(rest)
		if scheme == "" && len(labels) == 0 {
			continue
		}
		q := batchQuery{lineNo: lineNo, display: strings.Join(labels, " ")}
		if scheme != "" {
			q.display = scheme + ": " + q.display
		}
		svc, err := resolve(scheme)
		if err != nil {
			q.err = err
			queries = append(queries, q)
			continue
		}
		q.svc = svc
		g := svc.Connector().Frozen().G()
		q.terms = make([]int, 0, len(labels))
		for _, l := range labels {
			id, ok := g.ID(l)
			if !ok {
				q.err = fmt.Errorf("unknown node label %q", l)
				break
			}
			q.terms = append(q.terms, id)
		}
		queries = append(queries, q)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return queries, nil
}

// answerBatch answers the well-formed queries concurrently (bounded by
// workers, defaulting to GOMAXPROCS like Service.ConnectBatch), then
// prints answers to stdout in query order and line-numbered diagnostics
// for every failure to stderr.
func answerBatch(ctx context.Context, queries []batchQuery, stdout, stderr io.Writer, workers int) error {
	forEach(len(queries), workers, func(i int) {
		if q := &queries[i]; q.err == nil {
			q.conn, q.err = q.svc.Connect(ctx, q.terms)
		}
	})

	for i, q := range queries {
		if q.err != nil {
			fmt.Fprintf(stderr, "chordalctl: query %d (line %d) [%s]: %v\n", i+1, q.lineNo, q.display, q.err)
			continue
		}
		g := q.svc.Connector().Frozen().G()
		fmt.Fprintf(stdout, "query %d [%s]: method=%s nodes=%d {%s}\n",
			i+1, q.display, q.conn.Method, q.conn.Tree.Nodes.Len(),
			strings.Join(g.Labels(q.conn.Tree.Nodes), " "))
	}
	return nil
}

// countFailed counts queries whose outcome is an error.
func countFailed(queries []batchQuery) int {
	n := 0
	for _, q := range queries {
		if q.err != nil {
			n++
		}
	}
	return n
}

// printWitnesses prints the Berge cycle, special triangle and uncovered
// clique that h has, skipping each scan that the compiled class proves
// empty: a γ-acyclic hypergraph has no special triangle, and a conformal
// one no uncovered clique.
func printWitnesses(w io.Writer, name string, h *hypergraph.Hypergraph, gamma, conformal bool) {
	if bc := h.FindBergeCycle(); bc != nil {
		fmt.Fprintf(w, "%s Berge-cycle witness: edges %v through nodes %v\n",
			name, edgeNames(h, bc.Edges), h.NodeLabels(bc.Nodes))
	}
	if !gamma {
		if tr := h.FindGammaTriangle(); tr != nil {
			fmt.Fprintf(w, "%s gamma-triangle witness: (%s, %s, %s) via (%s, %s, %s)\n",
				name, h.EdgeName(tr.E1), h.EdgeName(tr.E2), h.EdgeName(tr.E3),
				h.NodeLabel(tr.N1), h.NodeLabel(tr.N2), h.NodeLabel(tr.N3))
		}
	}
	if !conformal {
		if wt := h.ConformalWitness(); wt != nil {
			fmt.Fprintf(w, "%s conformality witness (uncovered clique): %v\n",
				name, h.NodeLabels(wt))
		}
	}
}

func edgeNames(h *hypergraph.Hypergraph, idx []int) []string {
	out := make([]string, len(idx))
	for i, e := range idx {
		out[i] = h.EdgeName(e)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chordalctl:", err)
	os.Exit(1)
}
