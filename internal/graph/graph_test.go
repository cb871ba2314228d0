package graph

import (
	"math/rand"
	"testing"

	"repro/internal/intset"
)

// path returns the path graph a-b-c-... over the given labels.
func path(labels ...string) *Graph {
	g := NewWithNodes(labels...)
	for i := 1; i < len(labels); i++ {
		g.AddEdge(i-1, i)
	}
	return g
}

// cycle returns the cycle graph over the given labels.
func cycle(labels ...string) *Graph {
	g := path(labels...)
	g.AddEdge(len(labels)-1, 0)
	return g
}

func TestAddNodeEdge(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	if a != 0 || b != 1 {
		t.Fatalf("ids = %d, %d", a, b)
	}
	g.AddEdge(a, b)
	g.AddEdge(a, b) // duplicate is a no-op
	if g.N() != 2 || g.M() != 1 {
		t.Fatalf("N=%d M=%d, want 2, 1", g.N(), g.M())
	}
	if !g.HasEdge(a, b) || !g.HasEdge(b, a) {
		t.Error("HasEdge failed")
	}
	if g.Degree(a) != 1 {
		t.Errorf("Degree(a) = %d", g.Degree(a))
	}
}

func TestDuplicateLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on duplicate label")
		}
	}()
	g := New()
	g.AddNode("x")
	g.AddNode("x")
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on self-loop")
		}
	}()
	g := New()
	v := g.AddNode("x")
	g.AddEdge(v, v)
}

func TestEnsureNodeAndLabels(t *testing.T) {
	g := New()
	a := g.EnsureNode("a")
	if got := g.EnsureNode("a"); got != a {
		t.Errorf("EnsureNode returned %d, want %d", got, a)
	}
	g.AddEdgeLabels("a", "b")
	if g.M() != 1 {
		t.Errorf("M = %d", g.M())
	}
	if id, ok := g.ID("b"); !ok || g.Label(id) != "b" {
		t.Error("ID/Label round trip failed")
	}
	if got := g.Labels(g.IDs("b", "a")); got[0] != "b" || got[1] != "a" {
		t.Errorf("Labels = %v", got)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := path("a", "b", "c")
	g.RemoveEdge(0, 1)
	if g.M() != 1 || g.HasEdge(0, 1) {
		t.Error("RemoveEdge failed")
	}
	g.RemoveEdge(0, 1) // absent: no-op
	if g.M() != 1 {
		t.Error("RemoveEdge of absent edge changed M")
	}
}

func TestEdgesSorted(t *testing.T) {
	g := NewWithNodes("a", "b", "c")
	g.AddEdge(2, 0)
	g.AddEdge(1, 0)
	es := g.Edges()
	if len(es) != 2 || es[0] != (Edge{0, 1}) || es[1] != (Edge{0, 2}) {
		t.Errorf("Edges = %v", es)
	}
}

func TestAdj(t *testing.T) {
	g := path("a", "b", "c", "d")
	got := g.Adj([]int{1, 2})
	if !got.Equal(intset.New(0, 1, 2, 3)) {
		t.Errorf("Adj = %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := path("a", "b")
	c := g.Clone()
	c.AddEdgeLabels("b", "z")
	if g.N() != 2 || g.M() != 1 {
		t.Error("Clone is not independent")
	}
}

func TestInduced(t *testing.T) {
	g := cycle("a", "b", "c", "d")
	sub, old2new := g.Induced([]int{0, 1, 3})
	if sub.N() != 3 || sub.M() != 2 {
		t.Fatalf("induced N=%d M=%d", sub.N(), sub.M())
	}
	if !sub.HasEdge(old2new[0], old2new[1]) || !sub.HasEdge(old2new[0], old2new[3]) {
		t.Error("induced edges wrong")
	}
	if sub.Label(old2new[3]) != "d" {
		t.Error("labels not preserved")
	}
}

func TestBFSDistances(t *testing.T) {
	g := path("a", "b", "c", "d")
	g.AddNode("iso")
	d := g.BFSDistances(0)
	want := []int{0, 1, 2, 3, -1}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("dist[%d] = %d, want %d", i, d[i], want[i])
		}
	}
}

func TestComponentsAndConnectivity(t *testing.T) {
	g := path("a", "b")
	g.AddNode("c")
	comps := g.Components()
	if len(comps) != 2 {
		t.Fatalf("components = %v", comps)
	}
	if g.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
	alive := []bool{true, true, false}
	if got := g.ComponentsAlive(alive); len(got) != 1 {
		t.Errorf("alive subgraph should be connected, components %v", got)
	}
}

func TestCovers(t *testing.T) {
	g := path("a", "b", "c", "d")
	alive := []bool{true, true, true, true}
	if !g.Covers(alive, []int{0, 3}) {
		t.Error("full path should cover {a,d}")
	}
	alive[1] = false
	if g.Covers(alive, []int{0, 3}) {
		t.Error("broken path should not cover {a,d}")
	}
	// Definition 10 requires the whole subgraph to be connected, not just
	// the terminals.
	g2 := path("a", "b")
	g2.AddNode("c")
	if g2.Covers(nil, []int{0, 1}) {
		t.Error("cover with disconnected extra component accepted")
	}
	if !g2.Covers([]bool{true, true, false}, []int{0, 1}) {
		t.Error("restricted cover rejected")
	}
	if !g.Covers(nil, nil) {
		t.Error("empty terminal set should be covered")
	}
}

func TestIsForestAndTreeOver(t *testing.T) {
	g := path("a", "b", "c")
	if !g.Freeze().IsForest() {
		t.Error("path not recognized as forest")
	}
	// A tree over the terminals is a connected forest covering them.
	if !g.Covers(nil, []int{0, 2}) || !g.Freeze().IsForest() {
		t.Error("path is a tree over endpoints")
	}
	c := cycle("a", "b", "c", "d")
	if c.Freeze().IsForest() {
		t.Error("cycle recognized as forest")
	}
	if c.Covers(nil, []int{0}) && c.Freeze().IsForest() {
		t.Error("cycle is not a tree")
	}
}

func TestComponentContaining(t *testing.T) {
	g := path("a", "b")
	g.AddNode("c")
	comp := g.ComponentContaining([]int{0})
	if len(comp) != 2 {
		t.Errorf("component = %v", comp)
	}
	if got := g.ComponentContaining([]int{0, 2}); got != nil {
		t.Errorf("cross-component seeds should return nil, got %v", got)
	}
}

func TestBipartition(t *testing.T) {
	even := cycle("a", "b", "c", "d")
	if !even.IsBipartite() {
		t.Error("C4 should be bipartite")
	}
	odd := cycle("a", "b", "c")
	if odd.IsBipartite() {
		t.Error("C3 should not be bipartite")
	}
	side, ok := even.Bipartition()
	if !ok {
		t.Fatal("bipartition failed")
	}
	for _, e := range even.Edges() {
		if side[e.U] == side[e.V] {
			t.Errorf("edge %v inside one side", e)
		}
	}
}

func TestShortestPath(t *testing.T) {
	g := cycle("a", "b", "c", "d", "e", "f")
	f := g.Freeze()
	p := f.ShortestPath(0, 3)
	if len(p) != 4 {
		t.Errorf("path = %v", p)
	}
	if p[0] != 0 || p[len(p)-1] != 3 {
		t.Errorf("endpoints wrong: %v", p)
	}
	if !g.IsPath(p) {
		t.Errorf("%v is not a path", p)
	}
	if got := f.ShortestPath(2, 2); len(got) != 1 {
		t.Errorf("trivial path = %v", got)
	}
	g.AddNode("iso")
	if g.Freeze().ShortestPath(0, 6) != nil {
		t.Error("path to isolated node should be nil")
	}
}

func TestIsCycleAndChords(t *testing.T) {
	g := cycle("a", "b", "c", "d", "e", "f")
	all := []int{0, 1, 2, 3, 4, 5}
	if !g.IsCycle(all) {
		t.Error("C6 not recognized")
	}
	if got := g.CycleChords(all); len(got) != 0 {
		t.Errorf("chordless C6 has chords %v", got)
	}
	g.AddEdge(0, 3)
	if got := g.CycleChords(all); len(got) != 1 || got[0] != (Edge{0, 3}) {
		t.Errorf("chords = %v", got)
	}
	if g.IsCycle([]int{0, 1, 2, 0}) {
		t.Error("repeated node accepted as cycle")
	}
	if g.IsCycle([]int{0, 1}) {
		t.Error("2-node cycle accepted")
	}
}

func TestCycleDistance(t *testing.T) {
	tests := []struct{ i, j, n, want int }{
		{0, 1, 6, 1},
		{0, 5, 6, 1},
		{0, 3, 6, 3},
		{1, 5, 8, 4},
		{2, 2, 4, 0},
	}
	for _, tc := range tests {
		if got := CycleDistance(tc.i, tc.j, tc.n); got != tc.want {
			t.Errorf("CycleDistance(%d,%d,%d) = %d, want %d", tc.i, tc.j, tc.n, got, tc.want)
		}
	}
}

// randGraph builds a random graph on n nodes with edge probability p.
func randGraph(r *rand.Rand, n int, p float64) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode(string(rune('A'+i%26)) + string(rune('0'+i/26)))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

func TestRandomInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		g := randGraph(r, 2+r.Intn(12), r.Float64())
		// Handshake: sum of degrees = 2m.
		sum := 0
		for v := 0; v < g.N(); v++ {
			sum += g.Degree(v)
		}
		if sum != 2*g.M() {
			t.Fatalf("handshake violated: %d != 2*%d", sum, g.M())
		}
		// Components partition the nodes.
		total := 0
		for _, c := range g.ComponentsAlive(nil) {
			total += len(c)
		}
		if total != g.N() {
			t.Fatalf("components do not partition nodes")
		}
		// Shortest path length agrees with BFS distance.
		u, v := r.Intn(g.N()), r.Intn(g.N())
		p := g.Freeze().ShortestPath(u, v)
		d := g.Distance(u, v)
		if d == -1 {
			if p != nil {
				t.Fatalf("path found at distance -1")
			}
		} else if len(p)-1 != d {
			t.Fatalf("path length %d != distance %d", len(p)-1, d)
		}
	}
}
