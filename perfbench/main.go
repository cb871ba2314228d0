// Command perfbench is the repository's benchmark. It boots the
// multi-tenant HTTP server in its own process on a loopback listener,
// drives one seed-generated workload through the public API from
// closed-loop clients, verifies every answer against an independent
// in-process oracle, and prints the end-to-end metrics — or, with
// --trace 1, the per-layer metrics of a traced run — as the last line of
// standard output:
//
//	go run . --workload hot-hits --seed 1 --seconds 10 --trace 0
//
// Workloads: hot-hits, miss-solve, batch-overlap, interp-rank (see
// workload.go). The work of a run is fixed by its arguments: --seconds
// scales the op count, it never bounds a run by a clock.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	sizes    sizes
	traceDir string // where a traced run writes its spans
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{sizes: fullSizes}
	var traced int
	fs.StringVar(&cfg.workload, "workload", "hot-hits", "workload to run")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.IntVar(&cfg.seconds, "seconds", 10, "run length: the timed op count is this times the workload's nominal rate")
	fs.IntVar(&traced, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/trace", "directory a traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.seconds < 1 || (traced != 0 && traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg.trace = traced == 1
	rep, info, err := execute(context.Background(), cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	infoLine, _ := json.Marshal(info)
	repLine, _ := json.Marshal(rep)
	fmt.Fprintf(stdout, "%s\n%s\n", infoLine, repLine)
	if !rep.Correct {
		fmt.Fprintln(stderr, "perfbench: run failed its checks")
		return 1
	}
	return 0
}
