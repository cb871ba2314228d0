package steiner

import (
	"errors"
	"fmt"

	"repro/internal/bipartite"
	"repro/internal/graph"
	"repro/internal/intset"
)

// ErrNotAlphaAcyclic is returned by Algorithm1FrozenShared and
// MinimumTreeFrozenShared when H¹ of the terminals' component is not
// α-acyclic, i.e. the graph is not V1-chordal and V1-conformal, so Lemma
// 1's elimination ordering does not exist.
var ErrNotAlphaAcyclic = errors.New("steiner: graph is not V1-chordal and V1-conformal (H¹ not alpha-acyclic)")

// ErrDisconnectedTerminals is returned when the terminals do not lie in one
// connected component, so no cover exists.
var ErrDisconnectedTerminals = errors.New("steiner: terminals are not connected in the graph")

// ErrEmptyTerminals is returned when a solver is asked to connect an empty
// terminal set.
var ErrEmptyTerminals = errors.New("steiner: empty terminal set")

// ErrTooManyTerminals is returned by the exact Dreyfus–Wagner solver when
// the terminal count exceeds ExactTerminalLimit; the dynamic program is
// exponential in the number of terminals (Theorem 2 forbids better in
// general), so the limit keeps one query from monopolizing a process.
var ErrTooManyTerminals = errors.New("steiner: terminal count exceeds the exact solver's limit")

// ExactTerminalLimit is the largest terminal set ExactFrozenShared accepts
// before returning ErrTooManyTerminals.
const ExactTerminalLimit = 20

// Tree is a connected subgraph returned by the solvers: the node set of a
// cover of the terminals, plus the edges of a spanning tree of it.
type Tree struct {
	Nodes intset.Set
	Edges []graph.Edge
}

// Validate checks that the tree is really a tree over the terminals in g:
// nodes induce a connected subgraph, edges form a spanning tree of exactly
// the node set, and every terminal is included.
func (t Tree) Validate(g *graph.Graph, terminals []int) error {
	return t.validate(g.N(), g.Label, g.HasEdge, terminals)
}

// ValidateFrozen is Validate against the compiled CSR view — same checks,
// no thaw. Used by warm-restore paths that revive cached answers from a
// snapshot and must verify them against the frozen scheme they booted
// with, without materializing the mutable graph.
func (t Tree) ValidateFrozen(f *graph.Frozen, terminals []int) error {
	return t.validate(f.N(), f.Label, f.HasEdge, terminals)
}

// validate is the shared body of Validate/ValidateFrozen over the
// minimal graph surface the checks need.
func (t Tree) validate(n int, label func(int) string, hasEdge func(int, int) bool, terminals []int) error {
	alive := make([]bool, n)
	for _, v := range t.Nodes {
		alive[v] = true
	}
	for _, p := range terminals {
		if !alive[p] {
			return fmt.Errorf("steiner: terminal %s missing from tree", label(p))
		}
	}
	if len(t.Edges) != t.Nodes.Len()-1 {
		return fmt.Errorf("steiner: %d edges for %d nodes is not a tree", len(t.Edges), t.Nodes.Len())
	}
	seen := map[graph.Edge]bool{}
	for _, e := range t.Edges {
		if !alive[e.U] || !alive[e.V] {
			return fmt.Errorf("steiner: edge %v leaves the node set", e)
		}
		if !hasEdge(e.U, e.V) {
			return fmt.Errorf("steiner: edge %v not in the graph", e)
		}
		if seen[e] {
			return fmt.Errorf("steiner: duplicate edge %v", e)
		}
		seen[e] = true
	}
	// n-1 distinct valid edges + connectivity = tree; check connectivity
	// via the edges only.
	if t.Nodes.Len() == 0 {
		return nil
	}
	adj := map[int][]int{}
	for _, e := range t.Edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	visited := map[int]bool{t.Nodes[0]: true}
	queue := []int{t.Nodes[0]}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if !visited[w] {
				visited[w] = true
				queue = append(queue, w)
			}
		}
	}
	if len(visited) != t.Nodes.Len() {
		return fmt.Errorf("steiner: tree edges do not connect the node set")
	}
	return nil
}

// CountSide returns how many tree nodes satisfy the predicate — used to
// count V1 or V2 nodes of a cover.
func (t Tree) CountSide(isSide func(v int) bool) int {
	n := 0
	for _, v := range t.Nodes {
		if isSide(v) {
			n++
		}
	}
	return n
}

// V2Count returns the number of V2 nodes of the tree in b.
func V2Count(b *bipartite.Graph, t Tree) int {
	return t.CountSide(func(v int) bool { return b.Side(v) == graph.Side2 })
}
