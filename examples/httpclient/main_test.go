package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// wantOutput is what the program prints, less its "serving on" line.
const wantOutput = `scheme "library": 4+3 nodes, 6 arcs, guarantee: optimal-steiner (Theorem 5)
scheme "payroll": 2+1 nodes, 2 arcs, guarantee: optimal-steiner (Theorem 5)
reader–author via algorithm-2: [reader book author borrows wrote] (optimal=true)
  interpretation 1: [reader book author borrows wrote]
batch 1: [reader book borrows]
batch 2: [reader book author borrows wrote]
batch 3: [reader book borrows]
batch 4: core: invalid terminal: id 99 at position 0 is out of range [0,7) (422 invalid_terminal)
library cache: 2 hits, 3 misses, 3 entries
server stopped cleanly
`

// TestOutput runs the program, which serves itself on a loopback port,
// and pins its standard output. The "serving on" line names the port the
// kernel picked, so it is dropped before the comparison; an Example could
// not skip it.
func TestOutput(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	printed := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- string(b)
	}()
	stdout := os.Stdout
	os.Stdout = w
	main()
	os.Stdout = stdout
	w.Close()

	var got strings.Builder
	for _, line := range strings.SplitAfter(<-printed, "\n") {
		if !strings.HasPrefix(line, "serving on ") {
			got.WriteString(line)
		}
	}
	if got.String() != wantOutput {
		t.Errorf("output differs:\n got:\n%s\nwant:\n%s", got.String(), wantOutput)
	}
}
