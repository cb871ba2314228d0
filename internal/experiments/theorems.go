package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bipartite"
	"repro/internal/chordality"
	"repro/internal/gen"
	"repro/internal/reference"
	"repro/internal/relational"
	"repro/internal/schema"
	"repro/internal/steiner"
	"repro/internal/ur"
)

// ETheorem1 cross-validates the six statements of Theorem 1 on random
// bipartite graphs, bucketed by size: the graph side is decided literally
// by Definitions 4 and 5 (internal/reference), the hypergraph side by the
// acyclicity recognizers on H¹G and H²G.
func ETheorem1(ctx context.Context) Table {
	t := Table{
		ID:     "E-T1",
		Title:  "Theorem 1: graph-side vs hypergraph-side recognizer agreement",
		Header: []string{"bucket", "samples", "(i)", "(ii)", "(iii)", "(iv)", "(v)", "(vi)", "verdict"},
	}
	r := rand.New(rand.NewSource(1))
	buckets := []struct{ n1, n2, samples int }{
		{3, 3, 150}, {4, 4, 120}, {5, 4, 80},
	}
	for _, bk := range buckets {
		agree := [6]int{}
		for s := 0; s < bk.samples; s++ {
			b := gen.RandomBipartite(r, bk.n1, bk.n2, r.Float64())
			h1 := b.HypergraphV1().H
			h2 := b.HypergraphV2().H
			// (m,n)-chordality is a property of the graph alone, so (iv)
			// holds H² to the same three verdicts as (i)–(iii) hold H¹.
			c41 := reference.IsMNChordal(b.G(), 4, 1)
			c62 := reference.IsMNChordal(b.G(), 6, 2)
			c61 := reference.IsMNChordal(b.G(), 6, 1)
			checks := [6]bool{
				c41 == h1.BergeAcyclic(),
				c62 == h1.GammaAcyclic(),
				c61 == h1.BetaAcyclic(),
				c41 == h2.BergeAcyclic() && c62 == h2.GammaAcyclic() && c61 == h2.BetaAcyclic(),
				(reference.IsV1Chordal(b) && reference.IsV1Conformal(b)) == h1.AlphaAcyclic(),
				(reference.IsV2Chordal(b) && reference.IsV2Conformal(b)) == h2.AlphaAcyclic(),
			}
			for i, ok := range checks {
				if ok {
					agree[i]++
				}
			}
		}
		ok := true
		row := []string{fmt.Sprintf("%dx%d", bk.n1, bk.n2), itoa(bk.samples)}
		for i := 0; i < 6; i++ {
			row = append(row, fmt.Sprintf("%d/%d", agree[i], bk.samples))
			ok = ok && agree[i] == bk.samples
		}
		row = append(row, verdict(ok))
		t.Rows = append(t.Rows, row)
	}
	return t
}

// ECorollary1 checks self-duality of Berge/γ/β acyclicity on random
// hypergraphs, and exhibits the α counterexample.
func ECorollary1(ctx context.Context) Table {
	t := Table{
		ID:     "E-C1",
		Title:  "Corollary 1: self-duality of acyclicity degrees",
		Header: []string{"degree", "samples", "agree(H, dual H)", "verdict"},
	}
	r := rand.New(rand.NewSource(2))
	const samples = 300
	var berge, gamma, beta, alphaDiffer int
	for s := 0; s < samples; s++ {
		h := gen.RandomHypergraph(r, 2+r.Intn(5), 2+r.Intn(4), 5)
		d := h.Dual()
		if h.BergeAcyclic() == d.BergeAcyclic() {
			berge++
		}
		if h.GammaAcyclic() == d.GammaAcyclic() {
			gamma++
		}
		if h.BetaAcyclic() == d.BetaAcyclic() {
			beta++
		}
		if h.AlphaAcyclic() != d.AlphaAcyclic() {
			alphaDiffer++
		}
	}
	t.Rows = [][]string{
		{"Berge", itoa(samples), fmt.Sprintf("%d/%d", berge, samples), verdict(berge == samples)},
		{"gamma", itoa(samples), fmt.Sprintf("%d/%d", gamma, samples), verdict(gamma == samples)},
		{"beta", itoa(samples), fmt.Sprintf("%d/%d", beta, samples), verdict(beta == samples)},
		{"alpha (must differ somewhere)", itoa(samples), fmt.Sprintf("%d differ", alphaDiffer), verdict(alphaDiffer > 0)},
	}
	return t
}

// ECorollary2 counts class memberships across generated families,
// verifying the containment chain and its properness.
func ECorollary2(ctx context.Context) Table {
	t := Table{
		ID:     "E-C2",
		Title:  "Corollary 2: containment (4,1) ⊂ (6,2) ⊂ (6,1) ⊂ Vi-chordal ∧ Vi-conformal",
		Header: []string{"family", "samples", "(4,1)", "(6,2)", "(6,1)", "alphaV1", "alphaV2", "verdict"},
	}
	r := rand.New(rand.NewSource(3))
	families := []struct {
		name string
		make func() *bipartite.Graph
		n    int
	}{
		{"trees", func() *bipartite.Graph { return gen.RandomTree(r, 4+r.Intn(8)) }, 60},
		{"gamma-incidence", func() *bipartite.Graph {
			return bipartite.FromHypergraph(gen.GammaAcyclic(r, 2+r.Intn(4), 2, 2)).B
		}, 60},
		{"alpha-incidence", func() *bipartite.Graph {
			return bipartite.FromHypergraph(gen.AlphaAcyclic(r, 2+r.Intn(4), 3, 2)).B
		}, 60},
		{"random", func() *bipartite.Graph { return gen.RandomBipartite(r, 3+r.Intn(3), 3+r.Intn(3), 0.5) }, 60},
	}
	for _, f := range families {
		var c41, c62, c61, a1, a2 int
		chainOK := true
		for s := 0; s < f.n; s++ {
			cl := chordality.Classify(f.make())
			if cl.Chordal41 {
				c41++
			}
			if cl.Chordal62 {
				c62++
			}
			if cl.Chordal61 {
				c61++
			}
			if cl.AlphaV1() {
				a1++
			}
			if cl.AlphaV2() {
				a2++
			}
			if (cl.Chordal41 && !cl.Chordal62) || (cl.Chordal62 && !cl.Chordal61) ||
				(cl.Chordal61 && !(cl.AlphaV1() && cl.AlphaV2())) {
				chainOK = false
			}
		}
		t.Rows = append(t.Rows, []string{
			f.name, itoa(f.n), itoa(c41), itoa(c62), itoa(c61), itoa(a1), itoa(a2), verdict(chainOK),
		})
	}
	t.Notes = append(t.Notes, "counts increase along the chain; Fig 5 (E-FIG5) witnesses properness of the last containment")
	return t
}

// ETheorem2 demonstrates the NP-hardness shape: exact-solver time on the
// X3C gadget family grows exponentially with q while Algorithm 1 (which
// only minimizes relations) stays polynomial.
func ETheorem2(ctx context.Context) Table {
	t := Table{
		ID:     "E-T2",
		Title:  "Theorem 2: exact Steiner blow-up on X3C gadgets (terminals = 3q+1)",
		Header: []string{"q", "terminals", "nodes", "exact time", "algorithm-1 time", "verdict"},
	}
	r := rand.New(rand.NewSource(4))
	for _, q := range []int{1, 2, 3, 4} {
		inst := steiner.X3CInstance{Q: q, Triples: gen.RandomX3C(r, q, 2*q, true)}
		red, err := steiner.ReduceX3C(inst)
		if err != nil {
			t.Rows = append(t.Rows, []string{itoa(q), "-", "-", err.Error(), "-", "FAIL"})
			continue
		}
		g := red.B.G()
		fb := red.B.Freeze()
		start := time.Now()
		tree, err := steiner.ExactFrozenShared(ctx, fb.G(), red.Terminals, nil)
		exactTime := time.Since(start)
		if err != nil {
			t.Rows = append(t.Rows, []string{itoa(q), "-", "-", err.Error(), "-", "FAIL"})
			continue
		}
		start = time.Now()
		_, err1 := steiner.Algorithm1FrozenShared(ctx, fb, red.Terminals, nil)
		a1Time := time.Since(start)
		ok := err1 == nil && tree.Nodes.Len() <= red.Budget
		t.Rows = append(t.Rows, []string{
			itoa(q), itoa(len(red.Terminals)), itoa(g.N()),
			exactTime.Round(time.Microsecond).String(),
			a1Time.Round(time.Microsecond).String(),
			verdict(ok),
		})
	}
	t.Notes = append(t.Notes,
		"exact time grows with 3^(3q) (Dreyfus–Wagner over 3q+1 terminals); Algorithm 1 remains polynomial but only guarantees the relation count (Theorem 2 says total-node optimality is NP-complete on this class)")
	return t
}

// ETheorem3 validates Algorithm 1 exactness (V2 count) against brute force
// on random α-acyclic incidence graphs.
func ETheorem3(ctx context.Context) Table {
	t := Table{
		ID:     "E-T3",
		Title:  "Theorem 3: Algorithm 1 vs brute-force V2 optimum",
		Header: []string{"bucket", "instances", "V2-optimal", "verdict"},
	}
	r := rand.New(rand.NewSource(5))
	buckets := []struct {
		edges, samples int
	}{{3, 60}, {5, 50}, {7, 40}}
	for _, bk := range buckets {
		optimal, total := 0, 0
		for total < bk.samples {
			h := gen.AlphaAcyclic(r, bk.edges, 3, 2)
			b := bipartite.FromHypergraph(h).B
			g := b.G()
			if !g.IsConnected() || g.N() < 3 {
				continue
			}
			total++
			terms := r.Perm(g.N())[:2+r.Intn(2)]
			tree, err := steiner.Algorithm1FrozenShared(ctx, b.Freeze(), terms, nil)
			if err != nil {
				continue
			}
			if steiner.V2Count(b, tree) == reference.MinimumV2Count(b, terms) {
				optimal++
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d edges", bk.edges), itoa(total),
			fmt.Sprintf("%d/%d", optimal, total), verdict(optimal == total),
		})
	}
	return t
}

// ETheorem4 measures Algorithm 1 scaling: wall time against |V|·|A| of
// the component it runs on, reporting the normalized ratio, which should
// stay roughly flat (polynomial, near O(|V|·|A|)). The generator may
// produce several components, so the terminals are the two ends of the
// largest one. Each run gets a freshly frozen scheme (frozen outside the
// timer), so the time includes building the component's Lemma 1 ordering
// — the step Theorem 4 is about — and not just a warm elimination pass.
func ETheorem4(ctx context.Context) Table {
	t := Table{
		ID:     "E-T4",
		Title:  "Theorem 4: Algorithm 1 scaling (time per |V|·|A| unit of the largest component)",
		Header: []string{"edges", "|V|", "|A|", "time", "ns/(V*A)", "verdict"},
	}
	r := rand.New(rand.NewSource(6))
	for _, m := range []int{20, 40, 80, 160} {
		h := gen.AlphaAcyclic(r, m, 4, 3)
		b := bipartite.FromHypergraph(h).B
		g := b.G()
		var comp []int
		for _, c := range g.Components() {
			if len(c) > len(comp) {
				comp = c
			}
		}
		arcs := 0
		for _, v := range comp {
			arcs += g.Degree(v)
		}
		arcs /= 2
		terms := []int{comp[0], comp[len(comp)-1]}
		// Average a few runs.
		const runs = 5
		var el time.Duration
		var err error
		for i := 0; i < runs && err == nil; i++ {
			fb := b.Freeze()
			start := time.Now()
			_, err = steiner.Algorithm1FrozenShared(ctx, fb, terms, nil)
			el += time.Since(start)
		}
		if err != nil {
			t.Rows = append(t.Rows, []string{itoa(m), itoa(len(comp)), itoa(arcs), err.Error(), "-", "FAIL"})
			continue
		}
		el /= runs
		ratio := float64(el.Nanoseconds()) / float64(len(comp)*arcs)
		t.Rows = append(t.Rows, []string{
			itoa(m), itoa(len(comp)), itoa(arcs),
			el.Round(time.Microsecond).String(),
			fmt.Sprintf("%.1f", ratio),
			verdict(true),
		})
	}
	t.Notes = append(t.Notes, "|V| and |A| count the largest component, which holds both terminals; absolute times are machine-local; the ratio column growing slowly (not exponentially) is the claim under test, so the verdict fails only on a solver error. See also BenchmarkAlgorithm1.")
	return t
}

// ETheorem5 validates Algorithm 2 exactness against Dreyfus–Wagner on
// random (6,2)-chordal graphs and reports its scaling.
func ETheorem5(ctx context.Context) Table {
	t := Table{
		ID:     "E-T5",
		Title:  "Theorem 5: Algorithm 2 vs exact optimum on (6,2)-chordal graphs",
		Header: []string{"bucket", "instances", "optimal", "verdict"},
	}
	r := rand.New(rand.NewSource(7))
	buckets := []struct{ edges, samples int }{{3, 60}, {5, 50}, {7, 40}}
	for _, bk := range buckets {
		optimal, total := 0, 0
		for total < bk.samples {
			h := gen.GammaAcyclic(r, bk.edges, 2, 2)
			b := bipartite.FromHypergraph(h).B
			g := b.G()
			if !g.IsConnected() || g.N() < 3 {
				continue
			}
			total++
			terms := r.Perm(g.N())[:2+r.Intn(2)]
			fg := g.Freeze()
			tree, err := steiner.Algorithm2FrozenShared(ctx, fg, terms, nil)
			if err != nil {
				continue
			}
			if exact, err := steiner.ExactFrozenShared(ctx, fg, terms, nil); err == nil && tree.Nodes.Len() == exact.Nodes.Len() {
				optimal++
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d edges", bk.edges), itoa(total),
			fmt.Sprintf("%d/%d", optimal, total), verdict(optimal == total),
		})
	}
	return t
}

// ECorollary5 verifies that random orderings all reach the optimum on
// (6,2)-chordal graphs.
func ECorollary5(ctx context.Context) Table {
	t := Table{
		ID:     "E-C5",
		Title:  "Corollary 5: random elimination orderings on (6,2)-chordal graphs",
		Header: []string{"instances", "orderings each", "all minimum", "verdict"},
	}
	r := rand.New(rand.NewSource(8))
	const instances, orderings = 40, 8
	good, total := 0, 0
	for total < instances {
		h := gen.GammaAcyclic(r, 2+r.Intn(4), 2, 2)
		b := bipartite.FromHypergraph(h).B
		g := b.G()
		if !g.IsConnected() || g.N() < 3 {
			continue
		}
		total++
		terms := r.Perm(g.N())[:2]
		want := reference.SteinerMinimumNodes(g, terms)
		fg := g.Freeze()
		all := true
		for k := 0; k < orderings; k++ {
			tree, err := steiner.EliminateOrderedFrozen(ctx, fg, terms, r.Perm(g.N()))
			if err != nil || tree.Nodes.Len() != want {
				all = false
			}
		}
		if all {
			good++
		}
	}
	t.Rows = append(t.Rows, []string{
		itoa(total), itoa(orderings), fmt.Sprintf("%d/%d", good, total), verdict(good == total),
	})
	return t
}

// EUniversalRelation runs the end-to-end universal-relation flow: plan
// size equals the pseudo-Steiner optimum and Yannakakis evaluation equals
// the naive join.
func EUniversalRelation(ctx context.Context) Table {
	t := Table{
		ID:     "E-UR",
		Title:  "Universal relation interface: plan minimality and evaluation correctness",
		Header: []string{"query", "relations in plan", "V2-optimal", "evaluation", "verdict"},
	}
	s := schema.MustNew(
		schema.RelScheme{Name: "emp", Attrs: []string{"name", "dept"}},
		schema.RelScheme{Name: "dept", Attrs: []string{"dept", "floor"}},
		schema.RelScheme{Name: "floorplan", Attrs: []string{"floor", "area"}},
	)
	emp := relational.NewRelation("emp", "name", "dept")
	emp.Insert("ann", "toys")
	emp.Insert("bob", "tools")
	deptR := relational.NewRelation("dept", "dept", "floor")
	deptR.Insert("toys", "1")
	deptR.Insert("tools", "2")
	fp := relational.NewRelation("floorplan", "floor", "area")
	fp.Insert("1", "100")
	fp.Insert("2", "250")
	u, err := ur.New(s, emp, deptR, fp)
	if err != nil {
		t.Rows = append(t.Rows, []string{"-", err.Error(), "-", "-", "FAIL"})
		return t
	}
	queries := [][]string{
		{"name", "dept"},
		{"name", "floor"},
		{"name", "area"},
	}
	for _, q := range queries {
		res, plan, err := u.Answer(ctx, q)
		if err != nil {
			t.Rows = append(t.Rows, []string{fmt.Sprint(q), err.Error(), "-", "-", "FAIL"})
			continue
		}
		naive := relational.JoinNaive([]*relational.Relation{emp, deptR, fp}).Project(q...)
		evalOK := relational.Equal(res, naive)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(q),
			fmt.Sprint(plan.Relations),
			fmt.Sprint(plan.Connection.V2Optimal),
			fmt.Sprint(evalOK),
			verdict(plan.Connection.V2Optimal && evalOK),
		})
	}
	return t
}
