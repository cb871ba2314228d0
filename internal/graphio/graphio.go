// Package graphio parses the textual formats the command line tools
// consume — bipartite graphs, hypergraphs and relational databases — and
// writes the JSON classification report chordalctl prints.
//
// Bipartite graph format (one directive per line, '#' starts a comment):
//
//	v1 A            # declare a V1 node
//	v2 r            # declare a V2 node
//	edge A r        # arc between declared nodes
//
// Hypergraph format:
//
//	node A          # optional explicit node declaration
//	edge e1 A B C   # edge name followed by its member nodes
//
// Database format (see ReadDatabase):
//
//	relation emp name dept   # scheme declaration
//	tuple emp ann toys       # a tuple of a declared relation
package graphio

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/bipartite"
	"repro/internal/hypergraph"
)

// directives splits the input into non-empty, comment-stripped,
// whitespace-tokenized lines.
func directives(r io.Reader) ([][]string, error) {
	sc := bufio.NewScanner(r)
	var out [][]string
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		out = append(out, append([]string{fmt.Sprint(lineNo)}, fields...))
	}
	return out, sc.Err()
}

// ReadBipartite parses the bipartite graph format.
func ReadBipartite(r io.Reader) (*bipartite.Graph, error) {
	ds, err := directives(r)
	if err != nil {
		return nil, err
	}
	b := bipartite.New()
	for _, d := range ds {
		line, cmd, args := d[0], d[1], d[2:]
		switch cmd {
		case "v1":
			if len(args) != 1 {
				return nil, fmt.Errorf("graphio: line %s: v1 wants one name", line)
			}
			if _, ok := b.G().ID(args[0]); ok {
				return nil, fmt.Errorf("graphio: line %s: duplicate node %q", line, args[0])
			}
			b.AddV1(args[0])
		case "v2":
			if len(args) != 1 {
				return nil, fmt.Errorf("graphio: line %s: v2 wants one name", line)
			}
			if _, ok := b.G().ID(args[0]); ok {
				return nil, fmt.Errorf("graphio: line %s: duplicate node %q", line, args[0])
			}
			b.AddV2(args[0])
		case "edge":
			if len(args) != 2 {
				return nil, fmt.Errorf("graphio: line %s: edge wants two names", line)
			}
			u, ok := b.G().ID(args[0])
			if !ok {
				return nil, fmt.Errorf("graphio: line %s: unknown node %q", line, args[0])
			}
			v, ok := b.G().ID(args[1])
			if !ok {
				return nil, fmt.Errorf("graphio: line %s: unknown node %q", line, args[1])
			}
			if b.Side(u) == b.Side(v) {
				return nil, fmt.Errorf("graphio: line %s: edge %s-%s joins one side", line, args[0], args[1])
			}
			b.AddEdge(u, v)
		default:
			return nil, fmt.Errorf("graphio: line %s: unknown directive %q", line, cmd)
		}
	}
	return b, nil
}

// ReadHypergraph parses the hypergraph format. Edge members that were not
// declared with a node directive are created implicitly.
func ReadHypergraph(r io.Reader) (*hypergraph.Hypergraph, error) {
	ds, err := directives(r)
	if err != nil {
		return nil, err
	}
	h := hypergraph.New()
	for _, d := range ds {
		line, cmd, args := d[0], d[1], d[2:]
		switch cmd {
		case "node":
			if len(args) != 1 {
				return nil, fmt.Errorf("graphio: line %s: node wants one name", line)
			}
			if _, ok := h.NodeID(args[0]); ok {
				return nil, fmt.Errorf("graphio: line %s: duplicate node %q", line, args[0])
			}
			h.AddNode(args[0])
		case "edge":
			if len(args) < 2 {
				return nil, fmt.Errorf("graphio: line %s: edge wants a name and members", line)
			}
			h.AddEdgeLabels(args[0], args[1:]...)
		default:
			return nil, fmt.Errorf("graphio: line %s: unknown directive %q", line, cmd)
		}
	}
	return h, nil
}
