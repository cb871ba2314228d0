package graph

import (
	"math/rand"
	"testing"
)

// randomGraph builds a random labelled graph for cross-checking the frozen
// view against the mutable one.
func randomGraph(r *rand.Rand, n int, p float64) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode(string(rune('A'+i/26)) + string(rune('a'+i%26)))
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

func TestEdgesSortedLexicographically(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(r, 3+r.Intn(30), 0.3)
		edges := g.Edges()
		if len(edges) != g.M() {
			t.Fatalf("Edges returned %d edges, M() = %d", len(edges), g.M())
		}
		for i, e := range edges {
			if e.U >= e.V {
				t.Fatalf("edge %v violates U < V", e)
			}
			if i > 0 {
				prev := edges[i-1]
				if prev.U > e.U || (prev.U == e.U && prev.V >= e.V) {
					t.Fatalf("edges out of lexicographic order: %v before %v", prev, e)
				}
			}
		}
	}
}

func TestFreezeMirrorsGraph(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 15; trial++ {
		g := randomGraph(r, 2+r.Intn(40), 0.25)
		f := g.Freeze()
		if f.N() != g.N() || f.M() != g.M() {
			t.Fatalf("size mismatch: frozen %d/%d, graph %d/%d", f.N(), f.M(), g.N(), g.M())
		}
		if !f.HasMatrix() {
			t.Fatalf("small graph should compile the bitset matrix")
		}
		for v := 0; v < g.N(); v++ {
			if f.Label(v) != g.Label(v) {
				t.Fatalf("label mismatch at %d", v)
			}
			if id, ok := f.ID(g.Label(v)); !ok || id != v {
				t.Fatalf("ID(%q) = %d,%v", g.Label(v), id, ok)
			}
			if f.Degree(v) != g.Degree(v) {
				t.Fatalf("degree mismatch at %d", v)
			}
			nbr := f.Neighbors(v)
			want := g.Neighbors(v)
			if len(nbr) != want.Len() {
				t.Fatalf("neighbor count mismatch at %d", v)
			}
			for i, w := range nbr {
				if int(w) != want[i] {
					t.Fatalf("neighbor %d of %d: frozen %d, mutable %d", i, v, w, want[i])
				}
			}
			for w := 0; w < g.N(); w++ {
				if f.HasEdge(v, w) != g.HasEdge(v, w) {
					t.Fatalf("HasEdge(%d,%d) disagrees", v, w)
				}
			}
		}
		fe, ge := f.Edges(), g.Edges()
		if len(fe) != len(ge) {
			t.Fatalf("edge list length mismatch")
		}
		for i := range fe {
			if fe[i] != ge[i] {
				t.Fatalf("edge %d: frozen %v, mutable %v", i, fe[i], ge[i])
			}
		}
	}
}

func TestFreezeWithoutMatrix(t *testing.T) {
	// Above matrixMaxN nodes the dense matrix is skipped and HasEdge falls
	// back to binary search on the CSR slice.
	g := New()
	n := matrixMaxN + 10
	for i := 0; i < n; i++ {
		g.AddNode(string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676)))
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	g.AddEdge(0, n-1)
	f := g.Freeze()
	if f.HasMatrix() {
		t.Fatal("large graph should not compile the matrix")
	}
	for _, tc := range []struct {
		u, v int
		want bool
	}{{0, 1, true}, {1, 0, true}, {0, n - 1, true}, {0, 2, false}, {5, 900, false}, {n - 2, n - 1, true}} {
		if got := f.HasEdge(tc.u, tc.v); got != tc.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", tc.u, tc.v, got, tc.want)
		}
	}
}

func TestFreezeIsSnapshot(t *testing.T) {
	g := NewWithNodes("a", "b", "c")
	g.AddEdge(0, 1)
	f := g.Freeze()
	g.AddEdge(1, 2) // mutate after freezing
	if f.M() != 1 || f.HasEdge(1, 2) {
		t.Fatal("frozen view changed after graph mutation")
	}
	if !f.Thaw().HasEdge(0, 1) || f.Thaw().M() != 1 {
		t.Fatal("Thaw did not reproduce the snapshot")
	}
}

// TestFrozenTraversalMatchesMutable holds the frozen view's traversal —
// the bit-kernel probes the solvers build their cover tests from, and the
// CSR walks of frozen_traverse.go — to the mutable graph's []bool walks.
func TestFrozenTraversalMatchesMutable(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		g := randomGraph(r, 4+r.Intn(40), 0.12)
		f := g.Freeze()
		sc := NewBitScratch(g.N())

		alive := make([]bool, g.N())
		for v := range alive {
			alive[v] = r.Float64() < 0.8
		}
		start := r.Intn(g.N())
		alive[start] = true
		aliveBits := packAlive(alive)

		wantDist := g.BFSDistancesAlive(start, alive)
		gotDist := make([]int32, g.N())
		f.BFSDistancesBits(start, aliveBits, gotDist, sc)
		for v := range wantDist {
			if int(gotDist[v]) != wantDist[v] {
				t.Fatalf("BFS dist to %d: frozen %d, mutable %d", v, gotDist[v], wantDist[v])
			}
		}

		var terms []int
		for v := 0; v < g.N(); v++ {
			if alive[v] && r.Float64() < 0.2 {
				terms = append(terms, v)
			}
		}
		terms = append(terms, start)
		term := NewBits(g.N())
		for _, p := range terms {
			term.Set(p)
		}
		// The solvers' cover tests: terminals mutually connected in the
		// alive subgraph, and Definition 10's whole-subgraph cover.
		connected := term.SubsetOf(aliveBits) && f.ReachesAll(terms[0], aliveBits, term, sc)
		if want := g.TerminalsConnected(alive, terms); connected != want {
			t.Fatalf("TerminalsConnected: frozen %v, mutable %v", connected, want)
		}
		covers := term.SubsetOf(aliveBits) && aliveBits.SubsetOf(f.Reachable(terms[0], aliveBits, sc))
		if want := g.Covers(alive, terms); covers != want {
			t.Fatalf("Covers: frozen %v, mutable %v", covers, want)
		}

		if got, want := f.ComponentCount(), len(g.Components()); got != want {
			t.Fatalf("ComponentCount: frozen %d, mutable %d", got, want)
		}
		if got, want := f.IsForest(), g.IsForest(); got != want {
			t.Fatalf("IsForest: frozen %v, mutable %v", got, want)
		}

		mask, ok := f.ComponentBits(terms, sc)
		comp := g.ComponentContaining(terms)
		if ok != (comp != nil) {
			t.Fatalf("ComponentBits ok=%v disagrees with ComponentContaining", ok)
		}
		if ok && mask.Count() != len(comp) {
			t.Fatalf("ComponentBits has %d nodes, ComponentContaining %d", mask.Count(), len(comp))
		}
		for _, v := range comp {
			if !mask.Has(v) {
				t.Fatalf("ComponentBits misses %d", v)
			}
		}

		u, v := r.Intn(g.N()), r.Intn(g.N())
		p := f.ShortestPath(u, v)
		if d := g.Distance(u, v); d == -1 {
			if p != nil {
				t.Fatalf("ShortestPath(%d,%d) = %v between components", u, v, p)
			}
		} else if len(p) != d+1 || p[0] != u || p[len(p)-1] != v || !g.IsPath(p) {
			t.Fatalf("ShortestPath(%d,%d) = %v, distance %d", u, v, p, d)
		}
	}
}
