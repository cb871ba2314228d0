package fixtures_test

import (
	"testing"

	"repro/internal/chordality"
	"repro/internal/fixtures"
	"repro/internal/hypergraph"
	"repro/internal/reference"
)

func TestFig2Properties(t *testing.T) {
	b := fixtures.Fig2()
	if !b.HypergraphV1().H.AlphaAcyclic() {
		t.Error("Fig2 H1 must be alpha-acyclic")
	}
	if b.HypergraphV2().H.AlphaAcyclic() {
		t.Error("Fig2 H2 must not be alpha-acyclic")
	}
	cl := chordality.Classify(b)
	if !cl.AlphaV1() || cl.AlphaV2() {
		t.Errorf("Fig2 classification: %+v", cl)
	}
}

func TestFig3LadderDegrees(t *testing.T) {
	tests := []struct {
		name string
		h    *hypergraph.Hypergraph
		want hypergraph.Degree
	}{
		{"Fig3a->Fig4a", fixtures.Fig3a().HypergraphV1().H, hypergraph.DegreeBerge},
		{"Fig3b->Fig4b", fixtures.Fig3b().HypergraphV1().H, hypergraph.DegreeGamma},
		{"Fig3c->Fig4c", fixtures.Fig3c().HypergraphV1().H, hypergraph.DegreeBeta},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.h.Classify(); got != tc.want {
				t.Errorf("degree = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestFig3AgainstDefinitionalChecks(t *testing.T) {
	a, b, c := fixtures.Fig3a(), fixtures.Fig3b(), fixtures.Fig3c()
	if !reference.IsMNChordal(a.G(), 4, 1) {
		t.Error("Fig3a must be (4,1)-chordal by Definition 4")
	}
	if reference.IsMNChordal(b.G(), 4, 1) || !reference.IsMNChordal(b.G(), 6, 2) {
		t.Error("Fig3b must be (6,2)- but not (4,1)-chordal by Definition 4")
	}
	if reference.IsMNChordal(c.G(), 6, 2) || !reference.IsMNChordal(c.G(), 6, 1) {
		t.Error("Fig3c must be (6,1)- but not (6,2)-chordal by Definition 4")
	}
}

func TestFig5Properties(t *testing.T) {
	cl := chordality.Classify(fixtures.Fig5())
	if !cl.AlphaV1() || !cl.AlphaV2() {
		t.Errorf("Fig5 must be Vi-chordal and Vi-conformal on both sides: %+v", cl)
	}
	if cl.Chordal61 {
		t.Error("Fig5 must not be (6,1)-chordal")
	}
	// Definitional double-check of the chordless 6-cycle.
	if reference.IsMNChordal(fixtures.Fig5().G(), 6, 1) {
		t.Error("Definition 4 check disagrees with the (6,1) verdict")
	}
}

func TestFig6Instance(t *testing.T) {
	inst := fixtures.Fig6Instance()
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	if !inst.Solve() {
		t.Error("Fig6 instance must be solvable")
	}
	// Removing c1 breaks solvability (c2 and c3 overlap).
	broken := inst
	broken.Triples = inst.Triples[1:]
	if broken.Solve() {
		t.Error("instance without c1 must be unsolvable")
	}
}

func TestFig10NotChordal62(t *testing.T) {
	cl := chordality.Classify(fixtures.Fig10())
	if cl.Chordal62 {
		t.Error("Fig10 must not be (6,2)-chordal")
	}
	if !cl.Chordal61 {
		t.Error("Fig10 must be (6,1)-chordal")
	}
}

func TestFig11Shape(t *testing.T) {
	b := fixtures.Fig11()
	if b.N() != 12 || b.M() != 16 {
		t.Fatalf("Fig11 N=%d M=%d", b.N(), b.M())
	}
	cl := chordality.Classify(b)
	if !cl.Chordal61 {
		t.Error("Fig11 must be (6,1)-chordal")
	}
	if cl.Chordal62 {
		t.Error("Fig11 must not be (6,2)-chordal")
	}
	if len(fixtures.Fig11Cases()) != 4 {
		t.Error("Fig11 must have four ordering cases")
	}
	// Every node of {A, B, 1, 2} is covered by exactly one case.
	seen := map[string]bool{}
	for _, c := range fixtures.Fig11Cases() {
		if seen[c.Lead] {
			t.Errorf("case %q repeated", c.Lead)
		}
		seen[c.Lead] = true
		if len(c.Terminals) != 4 {
			t.Errorf("case %q has %d terminals", c.Lead, len(c.Terminals))
		}
	}
	for _, lead := range []string{"A", "B", "1", "2"} {
		if !seen[lead] {
			t.Errorf("case %q missing", lead)
		}
	}
}

func TestFig8Shape(t *testing.T) {
	b := fixtures.Fig8()
	g := b.G()
	for _, l := range []string{"A", "B", "C", "D", "E", "1", "2", "3", "4", "5"} {
		if _, ok := g.ID(l); !ok {
			t.Errorf("Fig8 missing node %q", l)
		}
	}
}
