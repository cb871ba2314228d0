package bipartite_test

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/fixtures"
	"repro/internal/gen"
	"repro/internal/graph"
)

// components returns the mask of every connected component of f, ordered
// by lowest node id.
func components(f *bipartite.Frozen) []graph.Bits {
	fg := f.G()
	sc := graph.NewBitScratch(fg.N())
	covered := graph.NewBits(fg.N())
	var out []graph.Bits
	for v := 0; v < fg.N(); v++ {
		if covered.Has(v) {
			continue
		}
		mask, _ := fg.ComponentBits([]int{v}, sc)
		c := graph.NewBits(fg.N())
		c.CopyFrom(mask)
		covered.Or(c)
		out = append(out, c)
	}
	return out
}

// lonelyV2 is a scheme of one V2 node without neighbours: its component's
// ordering is the node alone.
func lonelyV2() *bipartite.Graph {
	b := bipartite.New()
	b.AddV2("r")
	return b
}

// lemma1Schemes covers the paper's fixtures and the generator families,
// α-acyclic or not, connected or not.
func lemma1Schemes(r *rand.Rand) map[string]*bipartite.Graph {
	alpha := func() *bipartite.Graph {
		return bipartite.FromHypergraph(gen.AlphaAcyclic(r, 6+r.Intn(20), 4, 3)).B
	}
	return map[string]*bipartite.Graph{
		"Fig2":     fixtures.Fig2(),
		"Fig3a":    fixtures.Fig3a(),
		"Fig3b":    fixtures.Fig3b(),
		"Fig3c":    fixtures.Fig3c(),
		"Fig5":     fixtures.Fig5(),
		"Fig8":     fixtures.Fig8(),
		"Fig10":    fixtures.Fig10(),
		"Fig11":    fixtures.Fig11(),
		"alpha":    alpha(),
		"gamma":    bipartite.FromHypergraph(gen.GammaAcyclic(r, 6+r.Intn(20), 3, 3)).B,
		"random":   gen.RandomBipartite(r, 12, 12, 0.12),
		"tree":     gen.RandomTree(r, 130),
		"grid":     gen.GridBipartite(4, 5),
		"union":    gen.DisjointUnion(alpha(), gen.GridBipartite(3, 3), lonelyV2(), gen.RandomTree(r, 70)),
		"isolated": lonelyV2(),
	}
}

func TestLemma1MemoMatchesFreshBuild(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	schemes := lemma1Schemes(r)
	names := make([]string, 0, len(schemes))
	for name := range schemes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := schemes[name].Freeze()
		if _, allocated := bipartite.Lemma1Builds(f); allocated {
			t.Fatalf("%s: memo allocated before the first Lemma1Order", name)
		}
		comps := components(f)
		firsts := make([][]int, len(comps))
		for pass := 0; pass < 2; pass++ { // first build, then memo hit
			for i, c := range comps {
				got, ok := f.Lemma1Order(c)
				want, wantOK := bipartite.Lemma1Build(f, c)
				if ok != wantOK || !slices.Equal(got, want) {
					t.Fatalf("%s: component %d, pass %d: memo (%v, %v), fresh build (%v, %v)",
						name, c.First(), pass, got, ok, want, wantOK)
				}
				if pass == 0 {
					firsts[i] = got
				} else if len(got) > 0 && &got[0] != &firsts[i][0] {
					t.Fatalf("%s: component %d: second call rebuilt the ordering", name, c.First())
				}
			}
		}
		if builds, _ := bipartite.Lemma1Builds(f); builds != int64(len(comps)) {
			t.Fatalf("%s: %d builds for %d components", name, builds, len(comps))
		}
	}
}

// TestLemma1MemoConcurrentFirstUse starts first-use calls on every
// component from many goroutines at once, each in its own order. Under
// -race it holds the memo's publication to the race detector; the build
// counter holds it to one build per component.
func TestLemma1MemoConcurrentFirstUse(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	parts := []*bipartite.Graph{gen.GridBipartite(3, 4), lonelyV2()}
	for i := 0; i < 10; i++ {
		parts = append(parts,
			bipartite.FromHypergraph(gen.AlphaAcyclic(r, 4+r.Intn(12), 3, 3)).B,
			gen.RandomTree(r, 2+r.Intn(40)))
	}
	f := gen.DisjointUnion(parts...).Freeze()
	comps := components(f)
	wants := make([][]int, len(comps))
	wantOKs := make([]bool, len(comps))
	for i, c := range comps {
		wants[i], wantOKs[i] = bipartite.Lemma1Build(f, c)
	}
	if !slices.Contains(wantOKs, true) || !slices.Contains(wantOKs, false) {
		t.Fatal("the union should hold alpha-acyclic components and a cyclic one")
	}

	const workers = 16
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			order := rand.New(rand.NewSource(seed)).Perm(len(comps))
			<-start
			for _, i := range order {
				got, ok := f.Lemma1Order(comps[i])
				if ok != wantOKs[i] || !slices.Equal(got, wants[i]) {
					t.Errorf("component %d: concurrent memo (%v, %v), fresh build (%v, %v)",
						comps[i].First(), got, ok, wants[i], wantOKs[i])
					return
				}
			}
		}(int64(w))
	}
	close(start)
	wg.Wait()
	if builds, _ := bipartite.Lemma1Builds(f); builds != int64(len(comps)) {
		t.Fatalf("%d builds for %d components, want one each", builds, len(comps))
	}
}
