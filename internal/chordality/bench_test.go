package chordality

import (
	"math/rand"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/gen"
)

// BenchmarkClassifyFrozen times the compile path's classification on a
// 2,000-node tree, the complete bipartite K16,48, an 8×8 grid and the
// incidence graph of a γ-acyclic hypergraph with 5,120 edges (about 15k
// nodes).
func BenchmarkClassifyFrozen(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name string
		g    *bipartite.Graph
	}{
		{"tree-2000", gen.RandomTree(r, 2000)},
		{"K16x48", gen.CompleteBipartite(16, 48)},
		{"grid-8x8", gen.GridBipartite(8, 8)},
		{"gamma-5120", bipartite.FromHypergraph(gen.GammaAcyclic(r, 5120, 3, 3)).B},
	} {
		fb := c.g.Freeze()
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				ClassifyFrozen(fb)
			}
		})
	}
}
