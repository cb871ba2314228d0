package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
)

// testSizes shrinks every generated quantity so the self-test stays fast:
// a small catalog, a 48-entry answer cache (64 at 64 shards) and 40 timed
// ops per run.
var testSizes = sizes{
	catalog: smallCatalog, poolPerScheme: 8, batchSize: 4,
	rounds: 2, setups: 2, timedOps: 40, cacheSize: 48,
}

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSelf runs every workload untraced and traced on two seeds at a tiny
// size. Each run must pass its answer checks and outcome assertions and
// print exactly the metrics BENCHMARK.json declares, with their units.
func TestSelf(t *testing.T) {
	sp := readSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Fatalf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	for _, w := range workloads {
		for _, seed := range []int64{1, 2} {
			for _, traced := range []bool{false, true} {
				cfg := config{workload: w.name, seed: seed, seconds: 1, trace: traced, sizes: testSizes, traceDir: t.TempDir()}
				var log bytes.Buffer
				rep, _, err := execute(context.Background(), cfg, &log)
				if err != nil {
					t.Fatalf("%s seed %d trace %v: %v\n%s", w.name, seed, traced, err, log.String())
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted != testSizes.timedOps {
					t.Fatalf("%s seed %d trace %v: correct=%v attempted=%d failed=%d\n%s",
						w.name, seed, traced, rep.Correct, rep.Attempted, rep.Failed, log.String())
				}
				want := sp.EndToEnd
				if traced {
					want = sp.PerLayer
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%s trace %v: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("%s trace %v: metric %s = %+v (present %v), want unit %s", w.name, traced, m.Name, got, ok, m.Unit)
					}
				}
				if !traced && rep.Metrics["ok_share"].Value != 1 {
					t.Errorf("%s: ok_share %v, want 1", w.name, rep.Metrics["ok_share"].Value)
				}
			}
		}
	}
}

// TestFillShards runs the fill workloads with the cache split into 8 and
// 64 shards, as on larger hosts: set-up must still fill every shard, and
// every timed request must still miss and evict.
func TestFillShards(t *testing.T) {
	for _, procs := range []int{8, 64} {
		prev := runtime.GOMAXPROCS(procs)
		for _, w := range workloads {
			if !w.fill {
				continue
			}
			cfg := config{workload: w.name, seed: 1, seconds: 1, sizes: testSizes}
			var log bytes.Buffer
			rep, _, err := execute(context.Background(), cfg, &log)
			if err != nil || !rep.Correct {
				t.Errorf("%s at GOMAXPROCS %d: err %v, report %+v\n%s", w.name, procs, err, rep, log.String())
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestUnknownWorkload checks that a bad argument fails without a result.
func TestUnknownWorkload(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}
