package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/snapshot"
)

// TestRunCompile: -compile persists a snapshot that decodes and carries
// the scheme.
func TestRunCompile(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "fig3c.snap")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-compile", out}, strings.NewReader(fig3cInput), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "compiled 6 nodes, 7 arcs") {
		t.Errorf("unexpected -compile output:\n%s", stdout.String())
	}
	snap, err := snapshot.ReadFile(out)
	if err != nil {
		t.Fatalf("compiled file does not decode: %v", err)
	}
	if snap.Frozen.N() != 6 || snap.Frozen.M() != 7 {
		t.Fatalf("snapshot has %d nodes, %d arcs", snap.Frozen.N(), snap.Frozen.M())
	}
	if !snap.Class.Chordal61 || snap.Class.Chordal62 {
		t.Fatalf("Fig 3c must be (6,1)- but not (6,2)-chordal: %+v", snap.Class)
	}
}

// TestRunCompileWarm: -compile -warm answers the query file and persists
// the settled answers as the snapshot's warmup section; a registry booted
// from the snapshot answers those queries out of the restored cache,
// identically to the live-compiled scheme.
func TestRunCompileWarm(t *testing.T) {
	dir := t.TempDir()
	txt := filepath.Join(dir, "fig3c.txt")
	if err := os.WriteFile(txt, []byte(fig3cInput), 0o644); err != nil {
		t.Fatal(err)
	}
	warmQ := filepath.Join(dir, "warm.txt")
	if err := os.WriteFile(warmQ, []byte("A C\nB 3\n# comment\n1 2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "fig3c.snap")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-compile", out, "-warm", warmQ, txt}, nil, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "warmed 3 cache entries") {
		t.Errorf("unexpected -compile -warm output:\n%s", stdout.String())
	}
	snap, err := snapshot.ReadFile(out)
	if err != nil {
		t.Fatalf("warm snapshot does not decode: %v", err)
	}
	if len(snap.Warmup) != 3 {
		t.Fatalf("snapshot carries %d warm entries, want 3", len(snap.Warmup))
	}

	// The warmed snapshot answers exactly like a live compile.
	queries := filepath.Join(dir, "q.txt")
	if err := os.WriteFile(queries, []byte("live: A C\nwarm: A C\nlive: B 3\nwarm: B 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if err := run([]string{"-registry", "live=" + txt + ",warm=" + out, "-batch", queries},
		nil, &stdout, &stderr); err != nil {
		t.Fatalf("registry batch over warm snapshot failed: %v\nstderr:\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	strip := func(s string) string {
		s = strings.Replace(s, "[live: ", "[", 1)
		return strings.Replace(s, "[warm: ", "[", 1)
	}
	for i := 0; i+1 < len(lines); i += 2 {
		a := strip(strings.SplitN(lines[i], " ", 3)[2])
		b := strip(strings.SplitN(lines[i+1], " ", 3)[2])
		if a != b {
			t.Errorf("live and warm answers diverge:\n  %s\n  %s", lines[i], lines[i+1])
		}
	}
}

// TestRunCompileWarmErrors: a bad warm query aborts the compile (no
// partial warmup is persisted), and -warm without -compile is rejected.
func TestRunCompileWarmErrors(t *testing.T) {
	dir := t.TempDir()
	warmQ := filepath.Join(dir, "warm.txt")
	if err := os.WriteFile(warmQ, []byte("A NOPE\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "g.snap")
	var discard bytes.Buffer
	err := run([]string{"-compile", out, "-warm", warmQ}, strings.NewReader(fig3cInput), &discard, &discard)
	if err == nil || !strings.Contains(err.Error(), "NOPE") {
		t.Fatalf("bad warm label error = %v", err)
	}
	if _, statErr := os.Stat(out); statErr == nil {
		t.Fatalf("failed warm compile still wrote %s", out)
	}
	err = run([]string{"-warm", warmQ}, strings.NewReader(fig3cInput), &discard, &discard)
	if err == nil || !strings.Contains(err.Error(), "-compile") {
		t.Fatalf("-warm without -compile error = %v", err)
	}
}

// TestRunCompileVerbose: -v adds timing to stderr, stdout stays stable.
func TestRunCompileVerbose(t *testing.T) {
	out := filepath.Join(t.TempDir(), "g.snap")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-v", "-compile", out}, strings.NewReader(fig3cInput), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr.String(), "compiled in") {
		t.Errorf("-v produced no timing line:\n%s", stderr.String())
	}
}

// TestRunRegistryFromSnapshot: a -registry catalog may mix text schemes
// and snapshots; answers must be identical either way, and -v must report
// per-scheme provenance.
func TestRunRegistryFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	txt := filepath.Join(dir, "fig3c.txt")
	if err := os.WriteFile(txt, []byte(fig3cInput), 0o644); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "fig3c.snap")
	var discard bytes.Buffer
	if err := run([]string{"-compile", snap, txt}, nil, &discard, &discard); err != nil {
		t.Fatal(err)
	}
	queries := filepath.Join(dir, "q.txt")
	if err := os.WriteFile(queries, []byte("live: A C\nsnap: A C\nlive: B 3\nsnap: B 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	err := run([]string{"-registry", "live=" + txt + ",snap=" + snap, "-batch", queries, "-v"},
		nil, &stdout, &stderr)
	if err != nil {
		t.Fatalf("registry batch failed: %v\nstderr:\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	// Query i and i+1 are the same terminals against live vs snap; strip
	// the scheme name and the answers must match exactly.
	strip := func(s string) string {
		s = strings.Replace(s, "[live: ", "[", 1)
		return strings.Replace(s, "[snap: ", "[", 1)
	}
	for i := 0; i+1 < len(lines)-1; i += 2 {
		a := strip(strings.SplitN(lines[i], " ", 3)[2])   // drop "query N"
		b := strip(strings.SplitN(lines[i+1], " ", 3)[2]) // drop "query N"
		if a != b {
			t.Errorf("live and snapshot answers diverge:\n  %s\n  %s", lines[i], lines[i+1])
		}
	}
	verr := stderr.String()
	if !strings.Contains(verr, `scheme "snap": snapshot-v1 from`) {
		t.Errorf("-v missing snapshot provenance:\n%s", verr)
	}
	if !strings.Contains(verr, `scheme "live": compiled from`) {
		t.Errorf("-v missing compile provenance:\n%s", verr)
	}
}

// TestRunRegistryCorruptSnapshot: a damaged catalog file fails the boot
// with a scheme-attributed typed error.
func TestRunRegistryCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	txt := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(txt, []byte(fig3cInput), 0o644); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, "g.snap")
	var discard bytes.Buffer
	if err := run([]string{"-compile", snapPath, txt}, nil, &discard, &discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"-registry", "bad=" + snapPath}, nil, &discard, &discard)
	if err == nil || !strings.Contains(err.Error(), `scheme "bad"`) || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt snapshot boot error = %v", err)
	}
}

// TestRegistrySpecErrors: duplicate names are now rejected up front (the
// catalog loads concurrently, so last-wins would be a race).
func TestRegistrySpecErrors(t *testing.T) {
	var discard bytes.Buffer
	err := run([]string{"-registry", "a=x.txt,a=y.txt"}, nil, &discard, &discard)
	if err == nil || !strings.Contains(err.Error(), `named twice`) {
		t.Fatalf("duplicate registry name error = %v", err)
	}
}

// TestCompileFlagConflicts: combinations that would silently ignore the
// user's intent are errors.
func TestCompileFlagConflicts(t *testing.T) {
	for _, args := range [][]string{
		{"-compile", "x.snap", "-serve", ":0"},
		{"-compile", "x.snap", "-batch", "q.txt"},
		{"-compile", "x.snap", "-registry", "a=b"},
		{"-compile", "x.snap", "-json"},
		{"-compile", "x.snap", "-max-terminals", "3"},
		{"-compile", "x.snap", "-workers", "2"},
		{"-compile", "x.snap", "-timeout", "5s"},
		{"-compile"},
	} {
		var discard bytes.Buffer
		if err := run(args, strings.NewReader(fig3cInput), &discard, &discard); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunCompileReplacesAtomically: compiling over an existing snapshot
// leaves the new, decodable file and no temporary sibling.
func TestRunCompileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "scheme.snap")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-compile", out}, strings.NewReader(fig3cInput), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	small := "v1 A\nv2 r\nedge A r\n"
	if err := run([]string{"-compile", out}, strings.NewReader(small), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.ReadFile(out)
	if err != nil {
		t.Fatalf("recompiled file does not decode: %v", err)
	}
	if snap.Frozen.N() != 2 || snap.Frozen.M() != 1 {
		t.Fatalf("snapshot has %d nodes, %d arcs; want the second scheme's 2 and 1", snap.Frozen.N(), snap.Frozen.M())
	}
	assertDirHolds(t, dir, "scheme.snap")
}

// TestRunCompileOntoDirectory: a -compile target that is a directory
// fails, and the temporary file written beside it is removed.
func TestRunCompileOntoDirectory(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "taken")
	if err := os.Mkdir(out, 0o755); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-compile", out}, strings.NewReader(fig3cInput), &stdout, &stderr); err == nil {
		t.Fatal("-compile onto a directory succeeded")
	}
	assertDirHolds(t, dir, "taken")
}

// assertDirHolds fails t unless dir holds exactly the named entries.
func assertDirHolds(t *testing.T, dir string, names ...string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	if strings.Join(got, " ") != strings.Join(names, " ") {
		t.Fatalf("%s holds %q, want %q", dir, got, names)
	}
}
