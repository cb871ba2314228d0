package chordality

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/reference"
)

// TestQuickAlphaDefinitionSevenEquivalence checks, property-based, that the
// GYO recognizer agrees with Definition 7's own characterization:
// H is α-acyclic ⟺ G(H) is chordal and H is conformal (Beeri, Fagin,
// Maier, Yannakakis — the definition this paper adopts).
func TestQuickAlphaDefinitionSevenEquivalence(t *testing.T) {
	cfg := &quick.Config{MaxCount: 400}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := gen.RandomHypergraph(r, 2+r.Intn(5), 1+r.Intn(5), 4)
		def7 := IsChordal(h.PrimalGraph().Freeze()) && h.Conformal()
		return h.AlphaAcyclic() == def7
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// TestQuickPEOExistenceMatchesChordality checks that
// PerfectEliminationOrder succeeds exactly on chordal graphs, using
// triangulated random graphs as positives and raw random graphs, decided
// by cycle enumeration, as a mix.
func TestQuickPEOExistenceMatchesChordality(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		if seed%2 == 0 {
			g := gen.RandomChordalGraph(r, 2+r.Intn(8), 1+r.Intn(4))
			_, ok := PerfectEliminationOrder(g.Freeze())
			return ok
		}
		g := gen.RandomGraph(r, 3+r.Intn(7), r.Float64())
		_, ok := PerfectEliminationOrder(g.Freeze())
		return ok == reference.IsChordalGraph(g)
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// TestQuickClassImplications checks the taxonomy's internal implications on
// arbitrary random bipartite graphs: (4,1) ⇒ (6,2) ⇒ (6,1) ⇒ both-side α.
func TestQuickClassImplications(t *testing.T) {
	cfg := &quick.Config{MaxCount: 400}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cl := Classify(gen.RandomBipartite(r, 2+r.Intn(4), 2+r.Intn(4), r.Float64()))
		if cl.Chordal41 && !cl.Chordal62 {
			return false
		}
		if cl.Chordal62 && !cl.Chordal61 {
			return false
		}
		if cl.Chordal61 && !(cl.AlphaV1() && cl.AlphaV2()) {
			return false
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// TestQuickSwapSymmetry checks that V1 verdicts on the swapped graph
// equal V2 verdicts on the original (the "replace V1 with V2" remark
// before Theorem 2).
func TestQuickSwapSymmetry(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := gen.RandomBipartite(r, 2+r.Intn(4), 2+r.Intn(4), r.Float64())
		cl, sw := Classify(b), Classify(b.Swap())
		return sw.V1Chordal == cl.V2Chordal &&
			sw.V1Conformal == cl.V2Conformal &&
			sw.V2Chordal == cl.V1Chordal
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}
