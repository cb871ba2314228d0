// Command chordalvet runs the repository's invariant analyzers (see
// internal/analysis) over Go packages. It is a multichecker in both
// senses of go vet's world:
//
//	chordalvet ./...                 # standalone, loads packages itself
//	go vet -vettool=$(chordalvet -print-path) ./...   # driven by go vet
//
// Standalone mode resolves patterns with `go list -deps -export`, so it
// needs no build system and no network. Vettool mode speaks the go
// command's unit protocol: -V=full for build caching, -flags for flag
// discovery, and a single unit.cfg argument per compilation unit.
//
// -print-path installs a stable copy of the running binary under the
// user cache directory and prints its path, so the -vettool argument
// survives `go run`'s temporary build directory.
//
// Exit status: 0 clean, 1 diagnostics reported, 2 driver failure.
package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run implements the tool; factored out of main for tests.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "-V=full", "--V=full":
			return printVersion(stdout, stderr)
		case "-flags", "--flags":
			// The go command asks which flags the tool supports before
			// forwarding any; chordalvet keeps none.
			fmt.Fprintln(stdout, "[]")
			return 0
		case "-print-path", "--print-path":
			return printPath(stdout, stderr)
		case "help", "-help", "--help", "-h":
			usage(stdout)
			return 0
		}
	}
	if len(args) == 1 && analysis.IsVetConfig(args[0]) {
		return analysis.RunVetTool(args[0], analysis.Suite(), stderr)
	}
	for _, a := range args {
		if strings.HasPrefix(a, "-") {
			fmt.Fprintf(stderr, "chordalvet: unknown flag %s\n", a)
			usage(stderr)
			return 2
		}
	}
	patterns := args
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "chordalvet: %v\n", err)
		return 2
	}
	ds, err := analysis.RunPackages(pkgs, analysis.Suite())
	if err != nil {
		fmt.Fprintf(stderr, "chordalvet: %v\n", err)
		return 2
	}
	if len(pkgs) > 0 && analysis.Print(stderr, pkgs[0].Fset, ds) {
		return 1
	}
	return 0
}

// usage lists the analyzers and calling modes.
func usage(w io.Writer) {
	fmt.Fprintf(w, `chordalvet checks this repository's architectural invariants.

Usage:
  chordalvet [packages]          analyze packages (default ./...)
  chordalvet unit.cfg            go vet -vettool unit protocol
  chordalvet -print-path         install a stable binary copy and print its path

Analyzers:
`)
	for _, a := range analysis.Suite() {
		doc, _, _ := strings.Cut(a.Doc, "\n")
		fmt.Fprintf(w, "  %-12s %s\n", a.Name, doc)
	}
}

// printVersion implements the -V=full handshake `go vet` uses to key its
// build cache: the binary's path and a content hash, in the exact shape
// the go command's toolID parser accepts.
func printVersion(stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "chordalvet: %v\n", err)
		return 2
	}
	f, err := os.Open(exe)
	if err != nil {
		fmt.Fprintf(stderr, "chordalvet: %v\n", err)
		return 2
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		fmt.Fprintf(stderr, "chordalvet: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s version devel chordalvet buildID=%02x\n", exe, h.Sum(nil))
	return 0
}

// printPath copies the running binary to a stable location under the
// user cache dir and prints it, so
// `go vet -vettool=$(go run ./cmd/chordalvet -print-path)` works even
// though go run deletes its temporary binary.
func printPath(stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "chordalvet: %v\n", err)
		return 2
	}
	cacheDir, err := os.UserCacheDir()
	if err != nil {
		fmt.Fprintf(stderr, "chordalvet: %v\n", err)
		return 2
	}
	dst := filepath.Join(cacheDir, "chordalvet", "chordalvet")
	if err := copyExecutable(exe, dst); err != nil {
		fmt.Fprintf(stderr, "chordalvet: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, dst)
	return 0
}

// copyExecutable installs src at dst with the executable bit set,
// replacing atomically so a concurrent go vet never sees a torn binary:
// the copy is synced to disk before it is renamed over dst.
func copyExecutable(src, dst string) error {
	if err := os.MkdirAll(filepath.Dir(dst), 0o777); err != nil {
		return err
	}
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	tmp := dst + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o755)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, dst)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}
