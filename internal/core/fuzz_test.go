package core_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/intset"
	"repro/internal/reference"
	"repro/internal/steiner"
)

// fuzzMethods are the methods a fuzz input may pick: dispatch by class, or
// each solver forced.
var fuzzMethods = []core.Method{
	core.MethodAuto, core.MethodAlgorithm2, core.MethodAlgorithm1, core.MethodExact, core.MethodHeuristic,
}

// fuzzScheme builds one scheme of the family picked by family, its shape
// picked by size and r. Every scheme has at most 16 nodes, so the
// brute-force oracles answer in milliseconds.
func fuzzScheme(r *rand.Rand, family, size uint8) *bipartite.Graph {
	s := int(size)
	switch family % 7 {
	case 0: // (6,2)-chordal: trees
		return gen.RandomTree(r, 1+s%16)
	case 1: // (6,2)-chordal: complete bipartite
		return gen.CompleteBipartite(1+s%4, 1+s/4%4)
	case 2: // (6,2)-chordal: γ-acyclic H¹
		return bipartite.FromHypergraph(gen.GammaAcyclic(r, 1+s%5, 2, 2)).B
	case 3: // (6,2)-chordal: nested edges
		return bipartite.FromHypergraph(gen.NestedChain(1+s%3, 1+s/3%3)).B
	case 4: // α-acyclic H¹ with parallel routes: Algorithm 1
		return bipartite.FromHypergraph(gen.WithSubsetEdges(r, gen.AlphaAcyclic(r, 1+s%4, 2, 2), s/4%4)).B
	case 5: // cyclic: exact search
		return gen.RandomConnectedBipartite(r, 1+s%6, 1+s/6%6, 0.2+0.1*float64(s%5))
	default: // cyclic control
		return gen.GridBipartite(1+s%4, 1+s/4%4)
	}
}

// FuzzConnectOptimal holds every Connect answer to the guarantee its flags
// claim, against the brute-force oracles of internal/reference: Optimal
// means the minimum node count (Theorem 5 for (6,2)-chordal schemes,
// Dreyfus–Wagner for exact), V2Optimal the minimum number of V2 nodes
// (Theorem 3), and a heuristic answer is at most twice the minimum. A
// (6,2)-chordal scheme's Algorithm-2 answer must claim both minima. Every
// tree must be a valid tree over the terminals, and every error one the
// query can legitimately produce. The fuzz input picks the scheme family
// and size, 1–6 terminals and the method (auto or one forced solver).
func FuzzConnectOptimal(f *testing.F) {
	f.Fuzz(func(t *testing.T, family, size, nTerms, method uint8, seed int64) {
		r := rand.New(rand.NewSource(seed))
		b := fuzzScheme(r, family, size)
		k := 1 + int(nTerms)%6
		if k > b.N() {
			k = b.N()
		}
		terms := r.Perm(b.N())[:k]
		m := fuzzMethods[int(method)%len(fuzzMethods)]
		c := core.New(b)

		conn, err := c.Connect(context.Background(), terms, core.WithMethod(m))
		opt := reference.SteinerMinimumNodes(b.G(), terms)
		switch {
		case errors.Is(err, steiner.ErrDisconnectedTerminals):
			if opt != -1 {
				t.Fatalf("%v %v: disconnected, but a cover of %d nodes exists", terms, m, opt)
			}
			return
		case err == nil && opt == -1:
			t.Fatalf("%v %v: answered %v, but the terminals are disconnected", terms, m, conn.Tree)
		case errors.Is(err, steiner.ErrNotAlphaAcyclic) && m == core.MethodAlgorithm1:
			if c.Class().AlphaV1() {
				t.Fatalf("%v: forced algorithm-1 refused an alpha-acyclic scheme: %v", terms, err)
			}
			return
		case err != nil:
			t.Fatalf("%v %v: %v", terms, m, err)
		}

		if c.Class().Chordal62 && conn.Method == core.MethodAlgorithm2 && !(conn.Optimal && conn.V2Optimal) {
			t.Fatalf("%v: (6,2)-chordal answer claims optimal=%v v2-optimal=%v, want both", terms, conn.Optimal, conn.V2Optimal)
		}
		if err := conn.Tree.ValidateFrozen(c.Frozen().G(), terms); err != nil {
			t.Fatalf("%v %v: invalid tree %v: %v", terms, conn.Method, conn.Tree, err)
		}
		nodes := conn.Tree.Nodes.Len()
		if conn.Optimal && nodes != opt {
			t.Fatalf("%v %v: flagged optimal with %d nodes, optimum %d", terms, conn.Method, nodes, opt)
		}
		if conn.Method == core.MethodHeuristic && nodes > 2*opt {
			t.Fatalf("%v heuristic: %d nodes, over twice the optimum %d", terms, nodes, opt)
		}
		if conn.V2Optimal {
			if got, want := steiner.V2Count(b, conn.Tree), reference.MinimumV2Count(b, terms); got != want {
				t.Fatalf("%v %v: flagged V2-optimal with %d V2 nodes, optimum %d", terms, conn.Method, got, want)
			}
		}
	})
}

// FuzzInterpretations holds Connector.Interpretations to the brute-force
// ranking of reference.RankedConnections over the same seven families:
// the same node sets in the same order, each with its auxiliary set equal
// to its nodes minus the terminals. The fuzz input picks the scheme, 1–4
// terminals, max_aux 0–3 and limit 1–6.
func FuzzInterpretations(f *testing.F) {
	for family := uint8(0); family < 7; family++ {
		f.Add(family, 5*family+3, family, family, 2*family, int64(family))
	}
	f.Fuzz(func(t *testing.T, family, size, nTerms, maxAux, limit uint8, seed int64) {
		r := rand.New(rand.NewSource(seed))
		b := fuzzScheme(r, family, size)
		k := min(1+int(nTerms)%4, b.N())
		terms := r.Perm(b.N())[:k]
		aux, lim := int(maxAux)%4, 1+int(limit)%6

		got, err := core.New(b).Interpretations(context.Background(), terms, aux, lim)
		if err != nil {
			t.Fatalf("%v max_aux %d limit %d: %v", terms, aux, lim, err)
		}
		want := reference.RankedConnections(b.G(), terms, aux, lim)
		if len(got) != len(want) {
			t.Fatalf("%v max_aux %d limit %d: %d interpretations %v, oracle %d %v", terms, aux, lim, len(got), got, len(want), want)
		}
		p := intset.FromSlice(terms)
		for i, in := range got {
			if !in.Nodes.Equal(want[i]) {
				t.Fatalf("%v max_aux %d limit %d: interpretation %d is %v, oracle %v", terms, aux, lim, i, in.Nodes, want[i])
			}
			if !in.Auxiliary.Equal(in.Nodes.Diff(p)) {
				t.Fatalf("%v: interpretation %v has auxiliary set %v", terms, in.Nodes, in.Auxiliary)
			}
		}
	})
}
