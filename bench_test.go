// Root benchmark harness: one benchmark family per experiment table of
// EXPERIMENTS.md / DESIGN.md §4, plus substrate micro-benchmarks. Run with
//
//	go test -bench=. -benchmem
package chordal_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/chordality"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/relational"
	"repro/internal/schema"
	"repro/internal/steiner"
)

// BenchmarkRecognizers covers E-T1: the Theorem 1 taxonomy across graph
// sizes, compiled once (ClassifyFrozen) and with the freeze included
// (Classify).
func BenchmarkRecognizers(b *testing.B) {
	for _, size := range []int{8, 16, 32} {
		r := rand.New(rand.NewSource(int64(size)))
		g := gen.RandomBipartite(r, size, size, 0.25)
		fg := g.Freeze()
		b.Run(fmt.Sprintf("Classify/n=%d", 2*size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				chordality.Classify(g)
			}
		})
		b.Run(fmt.Sprintf("ClassifyFrozen/n=%d", 2*size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				chordality.ClassifyFrozen(fg)
			}
		})
	}
}

// BenchmarkAcyclicity benches the hypergraph-side recognizers (the right
// column of Theorem 1) on structured families.
func BenchmarkAcyclicity(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	alpha := gen.AlphaAcyclic(r, 40, 4, 3)
	gamma := gen.GammaAcyclic(r, 40, 3, 3)
	berge := gen.BergeForest(r, 40, 3)
	b.Run("GYO/alpha-m=40", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			alpha.GYO()
		}
	})
	b.Run("BetaNestPoints/gamma-m=40", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gamma.BetaAcyclic()
		}
	})
	b.Run("GammaTriangleScan/gamma-m=40", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gamma.FindGammaTriangle()
		}
	})
	b.Run("BergeCycle/berge-m=40", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			berge.FindBergeCycle()
		}
	})
	b.Run("Conformal/alpha-m=40", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			alpha.Conformal()
		}
	})
	b.Run("Dual/alpha-m=40", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			alpha.Dual()
		}
	})
	b.Run("JoinTree/alpha-m=40", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			alpha.JoinTree()
		}
	})
}

// largestComponentEnds returns two far-apart nodes of the largest
// connected component (generators may produce several components).
func largestComponentEnds(g *graph.Graph) []int {
	var best []int
	for _, c := range g.Components() {
		if len(c) > len(best) {
			best = c
		}
	}
	return []int{best[0], best[len(best)-1]}
}

// BenchmarkAlgorithm1 covers E-T4: pseudo-Steiner w.r.t. V2 on α-acyclic
// incidence graphs of growing size — near O(|V|·|A|) per Theorem 4.
func BenchmarkAlgorithm1(b *testing.B) {
	for _, m := range []int{20, 40, 80, 160} {
		r := rand.New(rand.NewSource(int64(m)))
		h := gen.AlphaAcyclic(r, m, 4, 3)
		bg := bipartite.FromHypergraph(h).B
		g := bg.G()
		fb := bg.Freeze()
		terms := largestComponentEnds(g)
		b.Run(fmt.Sprintf("edges=%d/V=%d/A=%d", m, g.N(), g.M()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := steiner.Algorithm1FrozenShared(context.Background(), fb, terms, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAlgorithm2 covers E-T5: Steiner on (6,2)-chordal graphs of
// growing size.
func BenchmarkAlgorithm2(b *testing.B) {
	for _, m := range []int{20, 40, 80, 160} {
		r := rand.New(rand.NewSource(int64(m)))
		h := gen.GammaAcyclic(r, m, 3, 3)
		g := bipartite.FromHypergraph(h).B.G()
		fg := g.Freeze()
		terms := largestComponentEnds(g)
		b.Run(fmt.Sprintf("edges=%d/V=%d/A=%d", m, g.N(), g.M()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := steiner.Algorithm2FrozenShared(context.Background(), fg, terms, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExactOnX3C covers E-T2: the exponential blow-up of the exact
// solver on the Theorem 2 gadgets (terminal count 3q+1), against
// Algorithm 1 on the same inputs.
func BenchmarkExactOnX3C(b *testing.B) {
	for _, q := range []int{1, 2, 3} {
		r := rand.New(rand.NewSource(int64(q)))
		inst := steiner.X3CInstance{Q: q, Triples: gen.RandomX3C(r, q, 2*q, true)}
		red, err := steiner.ReduceX3C(inst)
		if err != nil {
			b.Fatal(err)
		}
		fb := red.B.Freeze()
		b.Run(fmt.Sprintf("Exact/q=%d/terminals=%d", q, len(red.Terminals)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := steiner.ExactFrozenShared(context.Background(), fb.G(), red.Terminals, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Algorithm1/q=%d/terminals=%d", q, len(red.Terminals)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := steiner.Algorithm1FrozenShared(context.Background(), fb, red.Terminals, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEliminateOrdered covers E-C5: good-ordering elimination under
// random orderings.
func BenchmarkEliminateOrdered(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	h := gen.GammaAcyclic(r, 60, 3, 3)
	g := bipartite.FromHypergraph(h).B.G()
	fg := g.Freeze()
	terms := largestComponentEnds(g)
	order := r.Perm(g.N())
	b.Run(fmt.Sprintf("V=%d", g.N()), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := steiner.EliminateOrderedFrozen(context.Background(), fg, terms, order); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkApproximate benches the NP-hard-fallback heuristic on cyclic
// controls (grids), where no polynomial exact algorithm is available.
func BenchmarkApproximate(b *testing.B) {
	for _, side := range []int{4, 8, 12} {
		fg := gen.GridBipartite(side, side).G().Freeze()
		terms := []int{0, fg.N() - 1, fg.N() / 2}
		b.Run(fmt.Sprintf("grid=%dx%d", side, side), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := steiner.ApproximateFrozenShared(context.Background(), fg, terms, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInterpretations covers E-FIG1: ranked enumeration at schema
// scale.
func BenchmarkInterpretations(b *testing.B) {
	r := rand.New(rand.NewSource(13))
	bg := gen.RandomConnectedBipartite(r, 6, 6, 0.3)
	conn := core.New(bg)
	terms := []int{0, bg.N() - 1}
	b.Run("n=12", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			conn.Interpretations(context.Background(), terms, 6, 5)
		}
	})
}

// BenchmarkYannakakis covers E-UR: semijoin-program evaluation against the
// naive join on a chain schema whose naive intermediates blow up.
func BenchmarkYannakakis(b *testing.B) {
	r := rand.New(rand.NewSource(17))
	makeChain := func(k, rows, domain int) ([]*relational.Relation, []int) {
		rels := make([]*relational.Relation, k)
		parent := make([]int, k)
		for i := 0; i < k; i++ {
			rels[i] = relational.NewRelation(fmt.Sprintf("r%d", i),
				fmt.Sprintf("a%d", i), fmt.Sprintf("a%d", i+1))
			for j := 0; j < rows; j++ {
				rels[i].Insert(fmt.Sprint(r.Intn(domain)), fmt.Sprint(r.Intn(domain)))
			}
			parent[i] = i - 1
		}
		parent[0] = -1
		return rels, parent
	}
	rels, parent := makeChain(5, 60, 8)
	// Selective variant: the last relation kills almost everything, so the
	// final join is tiny while naive intermediates explode with dangling
	// tuples — the scenario the semijoin programs of [2] exist for.
	selRels, selParent := makeChain(4, 60, 4)
	last := relational.NewRelation("rk", "a4", "a5")
	last.Insert("nomatch", "x")
	selRels = append(selRels, last)
	selParent = append(selParent, len(selRels)-2)
	b.Run("Yannakakis/chain5x60", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := relational.JoinAcyclic(rels, parent); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("NaiveJoin/chain5x60", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			relational.JoinNaive(rels)
		}
	})
	b.Run("Yannakakis/selective", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := relational.JoinAcyclic(selRels, selParent); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("NaiveJoin/selective", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			relational.JoinNaive(selRels)
		}
	})
}

// BenchmarkConnectorDispatch measures the one-off classification cost that
// core.New front-loads (New), and one query's dispatch on the γ-acyclic,
// hence (6,2)-chordal, scheme (Connect).
func BenchmarkConnectorDispatch(b *testing.B) {
	r := rand.New(rand.NewSource(19))
	h := gen.GammaAcyclic(r, 30, 3, 3)
	bg := bipartite.FromHypergraph(h).B
	b.Run("New/m=30", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.New(bg)
		}
	})
	conn := core.New(bg)
	terms := largestComponentEnds(bg.G())
	b.Run("Connect/m=30", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := conn.Connect(context.Background(), terms); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAcyclify measures the schema-design extension: triangulation +
// maximal-clique cover of cyclic schemes.
func BenchmarkAcyclify(b *testing.B) {
	for _, nAttrs := range []int{10, 20, 40} {
		r := rand.New(rand.NewSource(int64(nAttrs)))
		rels := make([]schema.RelScheme, nAttrs)
		for i := range rels {
			a1 := fmt.Sprintf("a%d", i)
			a2 := fmt.Sprintf("a%d", (i+1)%nAttrs)
			a3 := fmt.Sprintf("a%d", r.Intn(nAttrs))
			attrs := []string{a1, a2}
			if a3 != a1 && a3 != a2 {
				attrs = append(attrs, a3)
			}
			rels[i] = schema.RelScheme{Name: fmt.Sprintf("r%d", i), Attrs: attrs}
		}
		s := schema.MustNew(rels...)
		b.Run(fmt.Sprintf("attrs=%d", nAttrs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.Acyclify()
			}
		})
	}
}

// BenchmarkConsistency covers E-CONS: the pairwise-consistency fixpoint vs
// a Yannakakis full reduction on the same chain database.
func BenchmarkConsistency(b *testing.B) {
	r := rand.New(rand.NewSource(29))
	k := 4
	rels := make([]*relational.Relation, k)
	parent := make([]int, k)
	for i := 0; i < k; i++ {
		rels[i] = relational.NewRelation(fmt.Sprintf("r%d", i),
			fmt.Sprintf("a%d", i), fmt.Sprintf("a%d", i+1))
		for j := 0; j < 40; j++ {
			rels[i].Insert(fmt.Sprint(r.Intn(6)), fmt.Sprint(r.Intn(6)))
		}
		parent[i] = i - 1
	}
	parent[0] = -1
	b.Run("PairwiseFixpoint/chain4x40", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			relational.MakePairwiseConsistent(rels)
		}
	})
	b.Run("FullReduce/chain4x40", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := relational.FullReduce(rels, parent); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOrderings times the greedy edge-MCS order (Theorem 4's route)
// that Lemma1Order checks for the running intersection property to build
// Algorithm 1's elimination ordering.
func BenchmarkOrderings(b *testing.B) {
	r := rand.New(rand.NewSource(31))
	h := gen.AlphaAcyclic(r, 80, 4, 3)
	b.Run("GreedyEdgeOrder/m=80", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.GreedyEdgeOrder()
		}
	})
}

// BenchmarkRankedCovers measures the interpretation enumeration at schema
// scale (it is exponential by design; the bench documents the envelope).
func BenchmarkRankedCovers(b *testing.B) {
	r := rand.New(rand.NewSource(37))
	bg := gen.RandomConnectedBipartite(r, 5, 5, 0.35)
	g := bg.G()
	terms := []int{0, g.N() - 1}
	b.Run("n=10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			steiner.RankedCovers(context.Background(), g, terms, g.N(), 5)
		}
	})
}

// BenchmarkFreeze measures the one-off compilation cost of the CSR view —
// the price paid once per scheme under the classify-once/query-many
// contract.
func BenchmarkFreeze(b *testing.B) {
	for _, m := range []int{20, 80} {
		r := rand.New(rand.NewSource(int64(m)))
		h := gen.GammaAcyclic(r, m, 3, 3)
		bg := bipartite.FromHypergraph(h).B
		b.Run(fmt.Sprintf("edges=%d/V=%d", m, bg.N()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bg.Freeze()
			}
		})
	}
}

// BenchmarkSteinerFrozen pins the per-query solver cost of Algorithms 1
// and 2 and of the exact Dreyfus–Wagner program over one pre-compiled
// scheme: the serving path's solver kernels. The exact cases are cyclic
// schemes, where Theorem 2 leaves no polynomial solver: an 8×8 grid and a
// 4,000-node random scheme of average degree about 2.7, at 2 and 8
// terminals.
func BenchmarkSteinerFrozen(b *testing.B) {
	for _, m := range []int{40, 160} {
		r := rand.New(rand.NewSource(int64(m)))
		h := gen.GammaAcyclic(r, m, 3, 3)
		bg := bipartite.FromHypergraph(h).B
		fb := bg.Freeze()
		terms := largestComponentEnds(bg.G())
		b.Run(fmt.Sprintf("Algorithm2/edges=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := steiner.Algorithm2FrozenShared(context.Background(), fb.G(), terms, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, m := range []int{40, 160} {
		r := rand.New(rand.NewSource(int64(m)))
		h := gen.AlphaAcyclic(r, m, 4, 3)
		bg := bipartite.FromHypergraph(h).B
		fb := bg.Freeze()
		terms := largestComponentEnds(bg.G())
		b.Run(fmt.Sprintf("Algorithm1/edges=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := steiner.Algorithm1FrozenShared(context.Background(), fb, terms, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	r := rand.New(rand.NewSource(41))
	for _, s := range []struct {
		name string
		bg   *bipartite.Graph
	}{
		{"grid=8x8", gen.GridBipartite(8, 8)},
		{"random=4000", gen.RandomConnectedBipartite(r, 2000, 2000, 0.00125)},
	} {
		fg := s.bg.Freeze().G()
		perm := r.Perm(fg.N())
		for _, k := range []int{2, 8} {
			terms := perm[:k]
			b.Run(fmt.Sprintf("Exact/%s/k=%d", s.name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := steiner.ExactFrozenShared(context.Background(), fg, terms, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// serviceWorkload builds a query mix with the paper's interactive shape:
// a modest set of distinct terminal sets, each asked many times. Terminals
// come from the largest component so every query runs a real solve.
func serviceWorkload(r *rand.Rand, g *graph.Graph, distinct, total int) [][]int {
	var comp []int
	for _, c := range g.Components() {
		if len(c) > len(comp) {
			comp = c
		}
	}
	base := make([][]int, distinct)
	for i := range base {
		pick := r.Perm(len(comp))[:3] // distinct: v2 rejects duplicate terminals
		base[i] = []int{comp[pick[0]], comp[pick[1]], comp[pick[2]]}
	}
	out := make([][]int, total)
	for i := range out {
		out[i] = base[r.Intn(distinct)]
	}
	return out
}

// BenchmarkServiceThroughput compares answering a repeated-query workload
// sequentially on a bare Connector (the seed serving story: every query
// from scratch) against the Service path (bounded worker pool + LRU answer
// cache over the frozen scheme).
func BenchmarkServiceThroughput(b *testing.B) {
	r := rand.New(rand.NewSource(97))
	h := gen.GammaAcyclic(r, 60, 3, 3)
	bg := bipartite.FromHypergraph(h).B
	conn := core.New(bg)
	queries := serviceWorkload(r, bg.G(), 16, 256)
	b.Run("SequentialUncached/q=256", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				conn.Connect(context.Background(), q) // errors included in the workload
			}
		}
	})
	b.Run("BatchedCached/q=256", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			svc := core.NewService(conn) // fresh cache each round
			svc.ConnectBatch(context.Background(), queries)
		}
	})
	b.Run("BatchedWarmCache/q=256", func(b *testing.B) {
		svc := core.NewService(conn)
		svc.ConnectBatch(context.Background(), queries)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			svc.ConnectBatch(context.Background(), queries)
		}
	})
}
