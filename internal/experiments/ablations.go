package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/bipartite"
	"repro/internal/gen"
	"repro/internal/reference"
	"repro/internal/steiner"
)

// EAblationOrdering (E-ABL1) shows the Lemma 1 ordering is load-bearing in
// Algorithm 1: with the proper ordering the V2 count is always optimal;
// with random V2 orderings the same elimination loses optimality on a
// non-trivial fraction of α-acyclic instances.
func EAblationOrdering(ctx context.Context) Table {
	t := Table{
		ID:     "E-ABL1",
		Title:  "Ablation: Algorithm 1 with Lemma 1 ordering vs random V2 orderings",
		Header: []string{"variant", "instances", "V2-optimal", "verdict"},
	}
	r := rand.New(rand.NewSource(21))
	const samples = 120
	lemmaOK, randomOK, total := 0, 0, 0
	for total < samples {
		// Subset edges create parallel routes; without them almost any
		// ordering happens to be optimal and the ablation shows nothing.
		h := gen.WithSubsetEdges(r, gen.AlphaAcyclic(r, 3+r.Intn(4), 3, 2), 2+r.Intn(3))
		b := bipartite.FromHypergraph(h).B
		g := b.G()
		if !g.IsConnected() || g.N() < 4 {
			continue
		}
		total++
		terms := r.Perm(g.N())[:2+r.Intn(2)]
		want := reference.MinimumV2Count(b, terms)
		fb := b.Freeze()
		if tree, err := steiner.Algorithm1FrozenShared(ctx, fb, terms, nil); err == nil && steiner.V2Count(b, tree) == want {
			lemmaOK++
		}
		if tree, err := steiner.Algorithm1WithOrder(ctx, fb, terms, r.Perm(g.N())); err == nil && steiner.V2Count(b, tree) == want {
			randomOK++
		}
	}
	t.Rows = [][]string{
		{"Lemma 1 ordering", itoa(total), fmt.Sprintf("%d/%d", lemmaOK, total), verdict(lemmaOK == total)},
		{"random ordering", itoa(total), fmt.Sprintf("%d/%d", randomOK, total), verdict(randomOK < total)},
	}
	t.Notes = append(t.Notes,
		"the random-ordering row must FAIL to reach 100%: without the running-intersection ordering the single elimination pass is not V2-optimal, which is exactly why Theorem 4 routes through Tarjan–Yannakakis")
	return t
}

// EAblationCoverSemantics (E-ABL2) shows the relaxed cover test
// ("terminals stay connected") is load-bearing: under the strict
// whole-graph-connectivity reading, a single elimination pass loses
// minimality even on (6,2)-chordal graphs.
func EAblationCoverSemantics(ctx context.Context) Table {
	t := Table{
		ID:     "E-ABL2",
		Title:  "Ablation: relaxed vs strict cover test in ordered elimination",
		Header: []string{"variant", "instances", "minimum reached", "verdict"},
	}
	r := rand.New(rand.NewSource(22))
	const samples = 120
	relaxedOK, strictOK, total := 0, 0, 0
	for total < samples {
		h := gen.GammaAcyclic(r, 2+r.Intn(5), 2, 2)
		b := bipartite.FromHypergraph(h).B
		g := b.G()
		if !g.IsConnected() || g.N() < 4 {
			continue
		}
		total++
		terms := r.Perm(g.N())[:2]
		want := reference.SteinerMinimumNodes(g, terms)
		order := r.Perm(g.N())
		fg := g.Freeze()
		if tree, err := steiner.EliminateOrderedFrozen(ctx, fg, terms, order); err == nil && tree.Nodes.Len() == want {
			relaxedOK++
		}
		if tree, err := steiner.EliminateOrderedStrict(ctx, fg, terms, order); err == nil && tree.Nodes.Len() == want {
			strictOK++
		}
	}
	t.Rows = [][]string{
		{"relaxed (terminals connected)", itoa(total), fmt.Sprintf("%d/%d", relaxedOK, total), verdict(relaxedOK == total)},
		{"strict (whole graph connected)", itoa(total), fmt.Sprintf("%d/%d", strictOK, total), verdict(strictOK < total)},
	}
	t.Notes = append(t.Notes,
		"under the strict reading a kept node blocks behind pendant fragments that are only removed later in the pass, so Corollary 5 would be false; the relaxed reading restores both correctness and the single-pass O(|V|·|A|) bound")
	return t
}

// EOpenProblem (E-OPEN) probes the paper's closing open problem: Steiner
// on (6,1)-chordal graphs. Neither Algorithm 2's guarantee nor a good
// ordering exists (Theorem 6); the table reports the gap between the
// elimination heuristic / 2-approximation and the exact optimum on random
// β-acyclic incidence graphs.
func EOpenProblem(ctx context.Context) Table {
	t := Table{
		ID:     "E-OPEN",
		Title:  "Open problem corner: Steiner on (6,1)-chordal graphs (no polynomial algorithm known)",
		Header: []string{"solver", "instances", "optimal", "worst overshoot", "verdict"},
	}
	r := rand.New(rand.NewSource(23))
	const samples = 100
	var elimOK, apxOK, total, elimWorst, apxWorst int
	for total < samples {
		// β-acyclic hypergraphs via rejection from sparse random ones.
		h := gen.RandomHypergraph(r, 3+r.Intn(4), 2+r.Intn(3), 3)
		if !h.BetaAcyclic() {
			continue
		}
		b := bipartite.FromHypergraph(h).B
		g := b.G()
		if !g.IsConnected() || g.N() < 4 {
			continue
		}
		total++
		terms := r.Perm(g.N())[:2+r.Intn(2)]
		want := reference.SteinerMinimumNodes(g, terms)
		fg := g.Freeze()
		if tree, err := steiner.EliminateOrderedFrozen(ctx, fg, terms, r.Perm(g.N())); err == nil {
			if tree.Nodes.Len() == want {
				elimOK++
			} else if d := tree.Nodes.Len() - want; d > elimWorst {
				elimWorst = d
			}
		}
		if tree, err := steiner.ApproximateFrozenShared(ctx, fg, terms, nil); err == nil {
			if tree.Nodes.Len() == want {
				apxOK++
			} else if d := tree.Nodes.Len() - want; d > apxWorst {
				apxWorst = d
			}
		}
	}
	t.Rows = [][]string{
		{"ordered elimination", itoa(total), fmt.Sprintf("%d/%d", elimOK, total), fmt.Sprintf("+%d nodes", elimWorst), verdict(true)},
		{"2-approximation", itoa(total), fmt.Sprintf("%d/%d", apxOK, total), fmt.Sprintf("+%d nodes", apxWorst), verdict(true)},
	}
	t.Notes = append(t.Notes,
		"informational (always PASS): the paper leaves polynomial exactness open for this class; Theorem 6 (E-FIG11) shows ordering-based elimination cannot close it")
	return t
}
