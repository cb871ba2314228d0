package main

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

const fig3cInput = `
v1 A
v1 B
v1 C
v2 1
v2 2
v2 3
edge A 1
edge B 1
edge B 2
edge C 2
edge C 3
edge A 3
edge C 1   # the single chord
`

func TestRunBipartite(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run(nil, strings.NewReader(fig3cInput), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"graph: 6 nodes (3 in V1, 3 in V2), 7 arcs",
		"H1 (nodes=V1, edges=V2 neighbourhoods): beta-acyclic",
		"gamma-triangle witness",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunHypergraph(t *testing.T) {
	var out, errOut bytes.Buffer
	in := "edge e1 a b\nedge e2 b c\nedge e3 c a\n"
	if err := run([]string{"-hypergraph"}, strings.NewReader(in), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "conformality witness") {
		t.Errorf("triangle should report a conformality witness:\n%s", out.String())
	}
}

func TestRunFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("v1 a\nv2 r\nedge a r\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if err := run([]string{path}, nil, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "graph: 2 nodes") {
		t.Errorf("unexpected output:\n%s", out.String())
	}
}

func TestRunJSON(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-json"}, strings.NewReader(fig3cInput), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\"h1Degree\": \"beta-acyclic\"") {
		t.Errorf("json report unexpected:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run(nil, strings.NewReader("bogus"), &out, &errOut); err == nil {
		t.Error("bad input accepted")
	}
	if err := run([]string{"/nonexistent/file"}, nil, &out, &errOut); err == nil {
		t.Error("missing file accepted")
	}
}

// TestRunArgumentOrder: the scheme file may come before, between or after
// the flags, a flag takes one dash or two, and any other argument that
// starts with a dash is an undefined flag, not a file name.
func TestRunArgumentOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte(fig3cInput), 0o644); err != nil {
		t.Fatal(err)
	}
	var want string
	for _, args := range [][]string{{path, "-json"}, {"--json", path}, {"-json", path}, {"-v", path, "--json"}} {
		var out, errOut bytes.Buffer
		if err := run(args, nil, &out, &errOut); err != nil {
			t.Fatalf("args %v: %v", args, err)
		}
		if want == "" {
			want = out.String()
			if !strings.Contains(want, `"h1Degree": "beta-acyclic"`) {
				t.Fatalf("args %v: json report unexpected:\n%s", args, want)
			}
		} else if out.String() != want {
			t.Errorf("args %v printed\n%s\nwant\n%s", args, out.String(), want)
		}
	}

	for _, args := range [][]string{{"-jsn", path}, {"-bench-out", "x", path}} {
		var out, errOut bytes.Buffer
		if err := run(args, nil, &out, &errOut); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("args %v: err = %v, want an undefined-flag error", args, err)
		}
	}

	var out, errOut bytes.Buffer
	if err := run([]string{"-h"}, nil, &out, &errOut); err != nil {
		t.Fatalf("-h: %v", err)
	}
	for _, name := range []string{"-batch", "-serve", "-compile", "-load-duration", "-verbose"} {
		if !strings.Contains(errOut.String(), name) {
			t.Errorf("-h usage does not list %s:\n%s", name, errOut.String())
		}
	}
	if out.Len() != 0 {
		t.Errorf("-h wrote to stdout:\n%s", out.String())
	}
}

func TestRunBatch(t *testing.T) {
	dir := t.TempDir()
	qpath := filepath.Join(dir, "queries.txt")
	queries := `
A C          # one minimal-connection query per line
A B C
A C          # duplicate: answered from the cache
`
	if err := os.WriteFile(qpath, []byte(queries), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if err := run([]string{"-batch", qpath, "-workers", "2", "-cache-shards", "2"}, strings.NewReader(fig3cInput), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"query 1 [A C]:",
		"query 2 [A B C]:",
		"query 3 [A C]:",
		"answered 3 queries (1 cache hits, 2 misses, 2 cache shards)",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("batch output missing %q:\n%s", want, s)
		}
	}
	// Identical queries must print identical answers.
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if got1, got3 := strings.TrimPrefix(lines[0], "query 1 "), strings.TrimPrefix(lines[2], "query 3 "); got1 != got3 {
		t.Errorf("duplicate queries answered differently:\n%s\n%s", got1, got3)
	}
	if errOut.Len() != 0 {
		t.Errorf("healthy batch should not write to stderr:\n%s", errOut.String())
	}
}

func TestRunBatchQueriesOnStdin(t *testing.T) {
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(gpath, []byte(fig3cInput), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if err := run([]string{"-batch", "-", gpath}, strings.NewReader("A C\n"), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "answered 1 queries") {
		t.Errorf("stdin batch output unexpected:\n%s", out.String())
	}
}

// TestRunBatchPerQueryFailures pins the v2 failure contract: a failing
// query gets a line-numbered diagnostic on stderr, the remaining queries
// still run and print to stdout, and run returns a batchError (exit
// status 2) rather than a fatal error.
func TestRunBatchPerQueryFailures(t *testing.T) {
	dir := t.TempDir()
	qpath := filepath.Join(dir, "q.txt")
	queries := "A C\n\nA NOPE   # unknown label\nA C B\n"
	if err := os.WriteFile(qpath, []byte(queries), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	err := run([]string{"-batch", qpath}, strings.NewReader(fig3cInput), &out, &errOut)
	var be *batchError
	if !errors.As(err, &be) || be.failed != 1 || be.total != 3 {
		t.Fatalf("expected a 1/3 batchError, got %v", err)
	}
	if !strings.Contains(errOut.String(), "query 2 (line 3) [A NOPE]") ||
		!strings.Contains(errOut.String(), "unknown node label") {
		t.Errorf("stderr diagnostic missing line number:\n%s", errOut.String())
	}
	if strings.Contains(out.String(), "NOPE") {
		t.Errorf("failure folded into stdout:\n%s", out.String())
	}
	for _, want := range []string{"query 1 [A C]:", "query 3 [A C B]:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("surviving query missing from stdout: %q\n%s", want, out.String())
		}
	}
}

func TestRunBatchErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-batch"}, strings.NewReader(fig3cInput), &out, &errOut); err == nil {
		t.Error("-batch without argument accepted")
	}
	if err := run([]string{"-batch", "-"}, strings.NewReader(fig3cInput), &out, &errOut); err == nil {
		t.Error("-batch - without a graph file accepted")
	}
}

// TestRunRegistry serves two named schemes from one process and routes
// each query line by its scheme prefix.
func TestRunRegistry(t *testing.T) {
	dir := t.TempDir()
	g1 := filepath.Join(dir, "fig3c.txt")
	if err := os.WriteFile(g1, []byte(fig3cInput), 0o644); err != nil {
		t.Fatal(err)
	}
	g2 := filepath.Join(dir, "tiny.txt")
	if err := os.WriteFile(g2, []byte("v1 x\nv1 y\nv2 r\nedge x r\nedge y r\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	qpath := filepath.Join(dir, "q.txt")
	queries := "fig: A C\ntiny: x y\nghost: x y   # unknown scheme\n"
	if err := os.WriteFile(qpath, []byte(queries), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	err := run([]string{"-registry", "fig=" + g1 + ",tiny=" + g2, "-batch", qpath}, nil, &out, &errOut)
	var be *batchError
	if !errors.As(err, &be) || be.failed != 1 {
		t.Fatalf("expected one failed query, got %v", err)
	}
	for _, want := range []string{"query 1 [fig: A C]:", "query 2 [tiny: x y]:", "answered 3 queries over 2 schemes"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("registry output missing %q:\n%s", want, out.String())
		}
	}
	if !strings.Contains(errOut.String(), "unknown scheme") {
		t.Errorf("unknown scheme not diagnosed:\n%s", errOut.String())
	}

	// Without -batch, registry mode describes every scheme.
	out.Reset()
	if err := run([]string{"-registry", "fig=" + g1 + ",tiny=" + g2}, nil, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `scheme "fig" (epoch 1)`) ||
		!strings.Contains(out.String(), `scheme "tiny" (epoch 1)`) {
		t.Errorf("registry describe output unexpected:\n%s", out.String())
	}
	if err := run([]string{"-registry", "broken"}, nil, &out, &errOut); err == nil {
		t.Error("bad -registry spec accepted")
	}
}

// lineWatcher is a concurrency-safe writer that announces the HTTP listen
// address once run prints its "serving HTTP on <addr>" line.
type lineWatcher struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	addrC chan string
	found bool
}

func newLineWatcher() *lineWatcher {
	return &lineWatcher{addrC: make(chan string, 1)}
}

func (w *lineWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.found {
		if s := w.buf.String(); strings.Contains(s, "serving HTTP on ") {
			rest := s[strings.Index(s, "serving HTTP on ")+len("serving HTTP on "):]
			if i := strings.IndexAny(rest, " \n"); i > 0 {
				w.found = true
				w.addrC <- rest[:i]
			}
		}
	}
	return len(p), nil
}

func TestRunServe(t *testing.T) {
	dir := t.TempDir()
	g1 := filepath.Join(dir, "fig.txt")
	if err := os.WriteFile(g1, []byte(fig3cInput), 0o644); err != nil {
		t.Fatal(err)
	}
	out := newLineWatcher()
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-serve", "127.0.0.1:0", "-timeout", "2s",
			"-registry", "fig=" + g1, "-max-terminals", "4",
		}, strings.NewReader(""), out, io.Discard)
	}()

	var addr string
	select {
	case addr = <-out.addrC:
	case err := <-done:
		t.Fatalf("server exited before listening: %v", err)
	case <-time.After(4 * time.Second):
		t.Fatal("server never announced its address")
	}

	post := func(body string) (int, string) {
		resp, err := http.Post("http://"+addr+"/v1/connect", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}
	if code, body := post(`{"scheme":"fig","labels":["A","C"]}`); code != 200 || !strings.Contains(body, `"method"`) {
		t.Fatalf("connect: %d %s", code, body)
	}
	if code, _ := post(`{"scheme":"ghost","labels":["A"]}`); code != 404 {
		t.Fatalf("unknown scheme: status %d, want 404", code)
	}
	if code, body := post(`{"scheme":"fig","labels":["A","B","C","1","2"]}`); code != 429 {
		t.Fatalf("-max-terminals should shed with 429, got %d %s", code, body)
	}

	// The -timeout context cancels the server; shutdown must be clean.
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited with: %v", err)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("server did not shut down after -timeout")
	}
	if !strings.Contains(out.buf.String(), "server stopped") {
		t.Errorf("missing graceful-stop line:\n%s", out.buf.String())
	}
}

func TestServeFlagConflicts(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		{"-serve", ":0", "-batch", "q.txt"},
		{"-serve", ":0", "-json"},
		{"-max-inflight", "4"},                       // only meaningful with -serve
		{"-cache-shards", "0"},                       // must be >= 1
		{"-cache-shards", "x"},                       // not a number
		{"-cache-shards", "8"},                       // no -serve/-batch/-registry: silently ignored otherwise
		{"-compile", "o.snap", "-cache-shards", "4"}, // serving knob, not an epoch property
	} {
		if err := run(args, strings.NewReader(""), &out, &errOut); err == nil {
			t.Errorf("args %v accepted, want a flag-conflict error", args)
		}
	}
}

func TestRunBatchProfiles(t *testing.T) {
	dir := t.TempDir()
	qpath := filepath.Join(dir, "queries.txt")
	if err := os.WriteFile(qpath, []byte("A C\nA B C\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out, errOut bytes.Buffer
	args := []string{"-batch", qpath, "-cpuprofile", cpu, "-memprofile", mem}
	if err := run(args, strings.NewReader(fig3cInput), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{cpu, mem} {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", f)
		}
	}
}

func TestProfileFlagConflicts(t *testing.T) {
	var out, errOut bytes.Buffer
	for _, args := range [][]string{
		{"-cpuprofile", "c.pprof"},                       // no -batch/-serve: nothing hot to profile
		{"-memprofile", "m.pprof", "-json"},              // same for describe/-json
		{"-compile", "o.snap", "-cpuprofile", "c.pprof"}, // compile is not a serving run
		{"-registry", "a=b", "-memprofile", "m.pprof"},   // batch-less registry only describes
		{"-batch", "q.txt", "-cpuprofile"},               // missing argument
		{"-batch", "q.txt", "-memprofile"},               // missing argument
	} {
		if err := run(args, strings.NewReader(""), &out, &errOut); err == nil {
			t.Errorf("args %v accepted, want a flag-conflict error", args)
		}
	}
}
