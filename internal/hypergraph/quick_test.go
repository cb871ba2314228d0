package hypergraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuickClassifyConsistent(t *testing.T) {
	// Classify must name the strongest degree whose recognizer passes.
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomH(r, 2+r.Intn(6), 1+r.Intn(5))
		switch h.Classify() {
		case DegreeBerge:
			return h.BergeAcyclic()
		case DegreeGamma:
			return !h.BergeAcyclic() && h.GammaAcyclic()
		case DegreeBeta:
			return !h.GammaAcyclic() && h.BetaAcyclic()
		case DegreeAlpha:
			return !h.BetaAcyclic() && h.AlphaAcyclic()
		case DegreeCyclic:
			return !h.AlphaAcyclic()
		}
		return false
	}, &quick.Config{MaxCount: 400})
	if err != nil {
		t.Error(err)
	}
}

func TestQuickPartialPreservesBeta(t *testing.T) {
	// β-acyclicity is closed under taking partial hypergraphs (that is the
	// essence of "every subhypergraph α-acyclic").
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomH(r, 2+r.Intn(6), 2+r.Intn(5))
		if !h.BetaAcyclic() {
			return true
		}
		var sub []int
		for i := 0; i < h.M(); i++ {
			if r.Intn(2) == 0 {
				sub = append(sub, i)
			}
		}
		return h.Partial(sub).BetaAcyclic()
	}, &quick.Config{MaxCount: 400})
	if err != nil {
		t.Error(err)
	}
}

func TestQuickBetaImpliesPartialAlpha(t *testing.T) {
	// Fagin's characterization: β-acyclic ⟺ every partial hypergraph is
	// α-acyclic. Forward direction checked on random subsets; backward
	// direction checked as the contrapositive on β-cyclic inputs by
	// searching a cyclic partial subfamily.
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomH(r, 2+r.Intn(5), 2+r.Intn(4))
		if h.BetaAcyclic() {
			var sub []int
			for i := 0; i < h.M(); i++ {
				if r.Intn(2) == 0 {
					sub = append(sub, i)
				}
			}
			return h.Partial(sub).AlphaAcyclic()
		}
		// β-cyclic: some subfamily must be α-cyclic.
		m := h.M()
		for mask := 0; mask < 1<<uint(m); mask++ {
			var sub []int
			for i := 0; i < m; i++ {
				if mask&(1<<uint(i)) != 0 {
					sub = append(sub, i)
				}
			}
			if len(sub) > 0 && !h.Partial(sub).AlphaAcyclic() {
				return true
			}
		}
		return false
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Error(err)
	}
}

func TestQuickDualPreservesSize(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomH(r, 2+r.Intn(6), 1+r.Intn(5))
		d := h.Dual()
		// Σ|e| is invariant under duality (each membership pair flips).
		return d.Size() == h.Size() && d.N() == h.M()
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Error(err)
	}
}
