package steiner_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/steiner"
)

// testdata/answers.golden pins the exact answer — node set, spanning-tree
// edge list in order, or error text — of every case of the solver sweeps
// in frozen_test.go and boundary_test.go. The answers were recorded from
// the mutable-graph solvers, which the frozen ones reproduced bit for bit,
// so they pin tie-breaking as well as optimality.
// Each sweep is one section of the file: lines whose first field is the
// sweep's name, in the order the sweep produces them.

// answerLine renders one case: the key (sweep, scheme, solver, terminals),
// then the node set and edge list, or the error text.
func answerLine(sweep, scheme, solver string, terms []int, tree steiner.Tree, err error) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s %s %v ", sweep, scheme, solver, terms)
	if err != nil {
		sb.WriteString("error: ")
		sb.WriteString(err.Error())
		return sb.String()
	}
	fmt.Fprintf(&sb, "nodes %v edges [", []int(tree.Nodes))
	for i, e := range tree.Edges {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d-%d", e.U, e.V)
	}
	sb.WriteByte(']')
	return sb.String()
}

// goldenSweep collects one sweep's answer lines for comparison with its
// section of the golden file.
type goldenSweep struct {
	name  string
	lines []string
}

// add records one case's answer.
func (s *goldenSweep) add(scheme, solver string, terms []int, tree steiner.Tree, err error) {
	s.lines = append(s.lines, answerLine(s.name, scheme, solver, terms, tree, err))
}

// check fails unless the recorded lines are exactly the sweep's section of
// the golden file.
func (s *goldenSweep) check(t *testing.T) {
	t.Helper()
	data, err := os.ReadFile("testdata/answers.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, s.name+" ") {
			want = append(want, line)
		}
	}
	for i := 0; i < len(want) && i < len(s.lines); i++ {
		if s.lines[i] != want[i] {
			t.Fatalf("%s case %d differs from the golden answer:\n got: %s\nwant: %s", s.name, i, s.lines[i], want[i])
		}
	}
	if len(s.lines) != len(want) {
		t.Fatalf("%s: %d cases, golden file has %d", s.name, len(s.lines), len(want))
	}
}
