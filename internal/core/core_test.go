package core_test

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/gen"
	"repro/internal/reference"
	"repro/internal/steiner"
)

func TestDispatchAlgorithm2(t *testing.T) {
	b := fixtures.Fig3b() // (6,2)-chordal
	c := core.New(b)
	if !c.Class().Chordal62 {
		t.Fatal("Fig3b should classify (6,2)-chordal")
	}
	terms := b.G().IDs("A", "C")
	conn, err := c.Connect(context.Background(), terms)
	if err != nil {
		t.Fatal(err)
	}
	if conn.Method != core.MethodAlgorithm2 || !conn.Optimal {
		t.Errorf("dispatch = %v optimal=%v", conn.Method, conn.Optimal)
	}
	if got, want := conn.Tree.Nodes.Len(), reference.SteinerMinimumNodes(b.G(), terms); got != want {
		t.Errorf("size %d, want %d", got, want)
	}
}

func TestDispatchAlgorithm1(t *testing.T) {
	b := fixtures.Fig2() // alpha-acyclic H1 but not (6,2)-chordal
	c := core.New(b)
	if c.Class().Chordal62 || !c.Class().AlphaV1() {
		t.Fatalf("Fig2 classification wrong: %+v", c.Class())
	}
	terms := b.G().IDs("A", "B", "C")
	conn, err := c.Connect(context.Background(), terms)
	if err != nil {
		t.Fatal(err)
	}
	if conn.Method != core.MethodAlgorithm1 || !conn.V2Optimal {
		t.Errorf("dispatch = %v v2opt=%v", conn.Method, conn.V2Optimal)
	}
	if got, want := steiner.V2Count(b, conn.Tree), reference.MinimumV2Count(b, terms); got != want {
		t.Errorf("V2 count %d, want %d", got, want)
	}
}

// TestAlgorithm1LoneTerminalV2Flag pins the V2-optimal flag of
// Algorithm-1 answers for one terminal: the elimination keeps a V2 node
// next to a lone V1 terminal, so such an answer must not claim the V2
// minimum (zero), while a lone V2 terminal's answer, with one V2 node,
// still may.
func TestAlgorithm1LoneTerminalV2Flag(t *testing.T) {
	b := fixtures.Fig2() // alpha-acyclic H1 but not (6,2)-chordal
	c := core.New(b)
	for _, v := range []int{b.V1()[0], b.V2()[0]} {
		conn, err := c.Connect(context.Background(), []int{v})
		if err != nil {
			t.Fatal(err)
		}
		if conn.Method != core.MethodAlgorithm1 {
			t.Fatalf("dispatch = %v", conn.Method)
		}
		want := reference.MinimumV2Count(b, []int{v})
		if got := steiner.V2Count(b, conn.Tree); conn.V2Optimal != (got == want) {
			t.Errorf("terminal %s: %d V2 nodes, minimum %d, flagged V2-optimal %v",
				b.G().Label(v), got, want, conn.V2Optimal)
		}
	}
}

func TestDispatchExactAndHeuristic(t *testing.T) {
	b := gen.GridBipartite(3, 4) // no chordality guarantees
	c := core.New(b)
	if c.Class().Chordal62 || c.Class().AlphaV1() {
		t.Fatalf("grid classification wrong: %+v", c.Class())
	}
	terms := []int{0, 11}
	conn, err := c.Connect(context.Background(), terms)
	if err != nil {
		t.Fatal(err)
	}
	if conn.Method != core.MethodExact || !conn.Optimal {
		t.Errorf("dispatch = %v", conn.Method)
	}
	// Force the heuristic by lowering the exact limit for one query.
	conn, err = c.Connect(context.Background(), terms, core.WithQueryExactLimit(1))
	if err != nil {
		t.Fatal(err)
	}
	if conn.Method != core.MethodHeuristic {
		t.Errorf("dispatch = %v, want heuristic", conn.Method)
	}
	if err := conn.Tree.Validate(b.G(), terms); err != nil {
		t.Error(err)
	}
}

// TestExactLimitClampedToSolverCap pins WithExactLimit's contract: a limit
// above the exact solver's hard cap must not turn large auto-dispatched
// queries into ErrTooManyTerminals — they fall back to the heuristic.
func TestExactLimitClampedToSolverCap(t *testing.T) {
	b := gen.GridBipartite(5, 5)
	c := core.New(b, core.WithExactLimit(steiner.ExactTerminalLimit+5))
	terms := make([]int, steiner.ExactTerminalLimit+1)
	for i := range terms {
		terms[i] = i
	}
	conn, err := c.Connect(context.Background(), terms)
	if err != nil {
		t.Fatalf("auto dispatch above the solver cap should fall back, got %v", err)
	}
	if conn.Method != core.MethodHeuristic {
		t.Errorf("method = %v, want heuristic", conn.Method)
	}
	// Forcing the exact method still surfaces the typed error.
	if _, err := c.Connect(context.Background(), terms, core.WithMethod(core.MethodExact)); !errors.Is(err, core.ErrTooManyTerminals) {
		t.Errorf("forced exact above the cap: %v", err)
	}
}

func TestConnectErrors(t *testing.T) {
	b := bipartite.New()
	a := b.AddV1("a")
	w := b.AddV2("w")
	b.AddEdge(a, w)
	iso := b.AddV1("iso")
	c := core.New(b)
	if _, err := c.Connect(context.Background(), []int{a, iso}); err == nil {
		t.Error("disconnected terminals accepted")
	}
}

func TestInterpretationsRankedByAuxiliaries(t *testing.T) {
	// Two routes between A and B: direct via hub H (0 auxiliaries beyond
	// H... the hub is auxiliary too) and a long route; the ranking must
	// list the smaller interpretation first.
	b := bipartite.New()
	a := b.AddV1("A")
	bb := b.AddV1("B")
	x := b.AddV1("X")
	h := b.AddV2("H")
	w1 := b.AddV2("W1")
	w2 := b.AddV2("W2")
	for _, arc := range [][2]int{{a, h}, {bb, h}, {a, w1}, {x, w1}, {x, w2}, {bb, w2}} {
		b.AddEdge(arc[0], arc[1])
	}
	c := core.New(b)
	interps, err := c.Interpretations(context.Background(), []int{a, bb}, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(interps) < 2 {
		t.Fatalf("interpretations = %v", interps)
	}
	if interps[0].Auxiliary.Len() != 1 || !interps[0].Nodes.Contains(h) {
		t.Errorf("first interpretation should be the hub route: %v", interps[0])
	}
	if interps[1].Auxiliary.Len() != 3 {
		t.Errorf("second interpretation should use 3 auxiliaries: %v", interps[1])
	}
	for _, in := range interps {
		if !reference.IsNonredundantCover(b.G(), in.Nodes, []int{a, bb}) {
			t.Errorf("interpretation %v is not a nonredundant cover", in)
		}
	}
}

func TestInterpretationsAgreeWithOptimum(t *testing.T) {
	r := rand.New(rand.NewSource(211))
	for iter := 0; iter < 60; iter++ {
		b := gen.RandomConnectedBipartite(r, 2+r.Intn(3), 2+r.Intn(3), 0.4)
		g := b.G()
		terms := []int{0, g.N() - 1}
		c := core.New(b)
		interps, err := c.Interpretations(context.Background(), terms, g.N(), 5)
		if err != nil {
			t.Fatal(err)
		}
		opt := reference.SteinerMinimumNodes(g, terms)
		if opt == -1 {
			if len(interps) != 0 {
				t.Fatalf("interpretations on disconnected terminals: %v", interps)
			}
			continue
		}
		if len(interps) == 0 {
			t.Fatalf("no interpretations but optimum %d exists on %v", opt, g)
		}
		if got := interps[0].Nodes.Len(); got != opt {
			t.Fatalf("first interpretation has %d nodes, optimum %d on %v", got, opt, g)
		}
	}
}

func TestDescribe(t *testing.T) {
	c := core.New(fixtures.Fig3b())
	out := c.Describe()
	if !strings.Contains(out, "(6,2)-chordal") || !strings.Contains(out, "Theorem 5") {
		t.Errorf("Describe output unexpected:\n%s", out)
	}
	c = core.New(gen.GridBipartite(3, 3))
	if !strings.Contains(c.Describe(), "no polynomial guarantee") {
		t.Error("grid Describe should mention missing guarantee")
	}
}

func TestMethodString(t *testing.T) {
	if core.MethodAlgorithm1.String() != "algorithm-1" || core.Method(9).String() != "Method(9)" {
		t.Error("Method.String wrong")
	}
}

func TestGraphAccessorAndMethodNames(t *testing.T) {
	b := fixtures.Fig2()
	c := core.New(b)
	if c.Graph() != b {
		t.Error("Graph() should return the classified scheme")
	}
	for m, want := range map[core.Method]string{
		core.MethodAlgorithm2: "algorithm-2",
		core.MethodExact:      "exact",
		core.MethodHeuristic:  "heuristic",
	} {
		if m.String() != want {
			t.Errorf("Method %d = %q, want %q", m, m.String(), want)
		}
	}
}

func TestConnectAlgorithm1ErrorPath(t *testing.T) {
	// An alpha-acyclic-H1 scheme with disconnected terminals must surface
	// the error through the Algorithm 1 branch.
	b := fixtures.Fig2()
	iso := b.AddV1("ISO")
	c := core.New(b)
	if !c.Class().AlphaV1() {
		t.Skip("classification changed; not the Algorithm 1 branch")
	}
	if _, err := c.Connect(context.Background(), []int{0, iso}); err == nil {
		t.Error("disconnected terminals accepted on Algorithm 1 branch")
	}
}

func TestDescribeAlgorithm1Branch(t *testing.T) {
	// A scheme that is AlphaV1 but not (6,2)-chordal gets the Theorem 3
	// line in Describe.
	c := core.New(fixtures.Fig2())
	if !strings.Contains(c.Describe(), "Theorem 3") {
		t.Errorf("Describe missing Theorem 3 line:\n%s", c.Describe())
	}
}

// TestForcedAlgorithm1PerComponent holds the Lemma 1 memo to its
// per-component key on a scheme that is the disjoint union of a grid and
// an α-acyclic scheme: a forced Algorithm-1 query on the grid side fails
// with ErrNotAlphaAcyclic whether or not the α-acyclic side's ordering is
// memoized already, and the α-acyclic side is solved either way.
func TestForcedAlgorithm1PerComponent(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(83))
	grid := gen.GridBipartite(3, 4)
	alpha := bipartite.FromHypergraph(gen.AlphaAcyclic(r, 12, 3, 3)).B
	b := gen.DisjointUnion(grid, alpha)
	gridTerms := []int{0, grid.N() - 1}
	comp := alpha.G().ComponentContaining([]int{0})
	if len(comp) < 4 {
		t.Fatalf("alpha part's first component has only %d nodes", len(comp))
	}
	alphaTerms := []int{grid.N() + comp[0], grid.N() + comp[len(comp)-1]}
	force := core.WithMethod(core.MethodAlgorithm1)
	// The answer of a freshly frozen scheme, whose memo this query alone
	// builds.
	want, err := steiner.Algorithm1FrozenShared(ctx, b.Freeze(), alphaTerms, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, alphaFirst := range []bool{false, true} {
		c := core.New(b)
		if c.Class().AlphaV1() {
			t.Fatal("a scheme with a grid component should not classify alpha-acyclic")
		}
		solveAlpha := func() {
			conn, err := c.Connect(ctx, alphaTerms, force)
			if err != nil {
				t.Fatalf("alphaFirst=%v: alpha side: %v", alphaFirst, err)
			}
			if conn.Method != core.MethodAlgorithm1 || !conn.Tree.Nodes.Equal(want.Nodes) {
				t.Fatalf("alphaFirst=%v: alpha side answered %v by %v, want %v", alphaFirst, conn.Tree.Nodes, conn.Method, want.Nodes)
			}
		}
		if alphaFirst {
			solveAlpha()
		}
		for i := 0; i < 2; i++ {
			if _, err := c.Connect(ctx, gridTerms, force); !errors.Is(err, steiner.ErrNotAlphaAcyclic) {
				t.Fatalf("alphaFirst=%v, ask %d: grid side: %v, want ErrNotAlphaAcyclic", alphaFirst, i, err)
			}
			solveAlpha()
		}
	}
}
