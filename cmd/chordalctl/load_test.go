package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestRunLoadSelf runs a very short self-mode load and checks the printed
// cold and warm summaries.
func TestRunLoadSelf(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-load", "self", "-load-duration", "200ms", "-load-concurrency", "2", "-seed", "7"}
	if err := run(args, strings.NewReader(""), &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("stdout holds %d lines, want the cold and warm summaries:\n%s", len(lines), stdout.String())
	}
	var hitRate float64
	for i, phase := range []string{"cold", "warm"} {
		var requests, errs int
		var qps, p50, p99 float64
		format := "load: " + phase + " %d requests (%d errors) %f qps, p50 %fms p99 %fms"
		fields := []any{&requests, &errs, &qps, &p50, &p99}
		if phase == "warm" {
			format += ", hit rate %f"
			fields = append(fields, &hitRate)
		}
		if _, err := fmt.Sscanf(lines[i], format, fields...); err != nil {
			t.Fatalf("%s summary %q: %v", phase, lines[i], err)
		}
		if requests == 0 || errs != 0 || qps <= 0 || p50 <= 0 || p99 < p50 {
			t.Errorf("%s summary implausible: %q", phase, lines[i])
		}
	}
	if hitRate <= 0 {
		t.Errorf("warm hit rate = %g, want > 0 (zipf reuse)", hitRate)
	}
}

// TestQuantileMS: quantiles are nearest-rank values of the measured
// samples, not interpolation inside a histogram bucket.
func TestQuantileMS(t *testing.T) {
	samples := make([]time.Duration, 0, 100)
	samples = append(samples, 150*time.Microsecond)
	for i := 0; i < 99; i++ {
		samples = append(samples, 10*time.Microsecond)
	}
	for _, c := range []struct{ q, want float64 }{{0.50, 0.01}, {0.99, 0.01}, {1, 0.15}, {0, 0.01}} {
		if got := quantileMS(samples, c.q); got != c.want {
			t.Errorf("quantileMS(q=%g) = %g ms, want %g", c.q, got, c.want)
		}
	}
	if got := quantileMS(nil, 0.5); got != 0 {
		t.Errorf("quantileMS of no samples = %g, want 0", got)
	}
}

// TestRunLoadTraceRoundTrip records the warm phase to a trace file, then
// replays it and checks the request counts: the distinct recorded queries
// in the cold pass, and every recorded query in the warm pass.
func TestRunLoadTraceRoundTrip(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "warm.trace")
	var stdout, stderr bytes.Buffer
	rec := []string{"-load", "self", "-load-duration", "150ms", "-load-concurrency", "2",
		"-seed", "7", "-trace-record", trace}
	if err := run(rec, strings.NewReader(""), &stdout, &stderr); err != nil {
		t.Fatalf("record: %v\nstderr: %s", err, stderr.String())
	}
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var lines int
	distinct := map[string]bool{}
	for _, l := range strings.Split(string(raw), "\n") {
		if l != "" && !strings.HasPrefix(l, "#") {
			lines++
			distinct[l] = true
		}
	}
	if lines == 0 {
		t.Fatal("trace recorded no queries")
	}

	stdout.Reset()
	replay := []string{"-load", "self", "-load-concurrency", "2", "-seed", "7", "-trace", trace}
	if err := run(replay, strings.NewReader(""), &stdout, &stderr); err != nil {
		t.Fatalf("replay: %v\nstderr: %s", err, stderr.String())
	}
	// The cold pass sends each distinct query once; the warm pass replays
	// every recorded query, repeats included, exactly once.
	wantCold := "cold " + strconv.Itoa(len(distinct)) + " requests (0 errors)"
	wantWarm := "warm " + strconv.Itoa(lines) + " requests (0 errors)"
	for _, want := range []string{wantCold, wantWarm} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("replay stdout missing %q:\n%s", want, stdout.String())
		}
	}
}

// TestLoadFlagConflicts exercises the flag-validation surface of -load.
func TestLoadFlagConflicts(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		{"-load", "self", "-serve", ":0"},                      // two run modes
		{"-load", "self", "-batch", "q.txt"},                   // load is not a batch
		{"-load", "ftp://x"},                                   // target must be self or http(s)
		{"-load", "self", "-load-duration", "0s"},              // duration must be positive
		{"-load", "self", "-load-concurrency", "0"},            // at least one worker
		{"-load", "self", "-zipf-s", "1.0"},                    // zipf needs s > 1
		{"-load", "self", "-trace", "a", "-trace-record", "b"}, // replay xor record
		{"-load-duration", "1s"},                               // load flags need -load
	} {
		if err := run(args, strings.NewReader(""), &out, &errOut); err == nil {
			t.Errorf("args %v accepted, want a flag-conflict error", args)
		}
	}
}
