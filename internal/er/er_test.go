package er

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/reference"
)

func TestSchemeValidation(t *testing.T) {
	if _, err := NewScheme(
		Object{Name: "x", Kind: KindAttribute},
		Object{Name: "x", Kind: KindAttribute},
	); err == nil {
		t.Error("duplicate object accepted")
	}
	if _, err := NewScheme(
		Object{Name: "a", Kind: KindAttribute, Components: []string{"a"}},
	); err == nil {
		t.Error("attribute with components accepted")
	}
	if _, err := NewScheme(
		Object{Name: "e", Kind: KindEntity, Components: []string{"ghost"}},
	); err == nil {
		t.Error("unknown component accepted")
	}
	if _, err := NewScheme(
		Object{Name: "e1", Kind: KindEntity},
		Object{Name: "e2", Kind: KindEntity, Components: []string{"e1"}},
	); err == nil {
		t.Error("entity aggregating entity accepted")
	}
	if _, err := NewScheme(
		Object{Name: "r1", Kind: KindRelationship},
		Object{Name: "r2", Kind: KindRelationship, Components: []string{"r1"}},
	); err == nil {
		t.Error("relationship aggregating relationship accepted")
	}
}

func TestFig1MinimalInterpretation(t *testing.T) {
	s := Fig1Scheme()
	// Query {EMPLOYEE, DATE}: the minimal interpretation is the direct
	// birthdate aggregation (no auxiliary object); the next one goes
	// through WORKS_IN (one auxiliary object).
	interps, err := s.Interpretations(context.Background(), []string{"EMPLOYEE", "DATE"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(interps) < 2 {
		t.Fatalf("interpretations = %v", interps)
	}
	if len(interps[0].Auxiliary) != 0 {
		t.Errorf("first interpretation should need no auxiliary objects: %v", interps[0])
	}
	if len(interps[1].Auxiliary) != 1 || interps[1].Auxiliary[0] != "WORKS_IN" {
		t.Errorf("second interpretation should use WORKS_IN: %v", interps[1])
	}
}

func TestFig1MinimalConnection(t *testing.T) {
	s := Fig1Scheme()
	conn, err := s.MinimalConnection(context.Background(), []string{"NAME", "BUDGET"})
	if err != nil {
		t.Fatal(err)
	}
	// NAME–EMPLOYEE–WORKS_IN–DEPARTMENT–BUDGET: 3 auxiliaries.
	if len(conn.Auxiliary) != 3 {
		t.Errorf("connection = %v", conn)
	}
}

func TestUnknownObject(t *testing.T) {
	if _, err := Fig1Scheme().Interpretations(context.Background(), []string{"GHOST"}, 1); err == nil {
		t.Error("unknown object accepted")
	}
}

func TestDisconnectedQuery(t *testing.T) {
	s := MustScheme(
		Object{Name: "a", Kind: KindAttribute},
		Object{Name: "b", Kind: KindAttribute},
	)
	if _, err := s.MinimalConnection(context.Background(), []string{"a", "b"}); err == nil {
		t.Error("disconnected objects should not connect")
	}
}

func TestGraphShape(t *testing.T) {
	s := Fig1Scheme()
	g := s.Graph()
	if g.N() != 7 {
		t.Fatalf("N = %d", g.N())
	}
	emp := g.MustID("EMPLOYEE")
	date := g.MustID("DATE")
	if !g.HasEdge(emp, date) {
		t.Error("EMPLOYEE-DATE aggregation edge missing")
	}
	// Fig 1's graph is 3-partite but not bipartite by level (WORKS_IN
	// touches DATE directly, forming an odd cycle).
	if s.StrictlyLayered() {
		t.Error("Fig1 scheme should not be strictly layered")
	}
	if _, err := s.Bipartite(); err == nil {
		t.Error("non-layered scheme produced a bipartite view")
	}
}

func TestStrictlyLayeredBipartite(t *testing.T) {
	s := MustScheme(
		Object{Name: "ssn", Kind: KindAttribute},
		Object{Name: "dname", Kind: KindAttribute},
		Object{Name: "person", Kind: KindEntity, Components: []string{"ssn"}},
		Object{Name: "dep", Kind: KindEntity, Components: []string{"dname"}},
		Object{Name: "member", Kind: KindRelationship, Components: []string{"person", "dep"}},
	)
	if !s.StrictlyLayered() {
		t.Fatal("scheme should be strictly layered")
	}
	b, err := s.Bipartite()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(b.V2()); got != 2 { // the two entities
		t.Errorf("V2 = %d", got)
	}
}

func TestObjectLookupAndKinds(t *testing.T) {
	s := Fig1Scheme()
	o, ok := s.Object("WORKS_IN")
	if !ok || o.Kind != KindRelationship {
		t.Errorf("Object lookup: %+v %v", o, ok)
	}
	if _, ok := s.Object("GHOST"); ok {
		t.Error("ghost object found")
	}
	if KindAttribute.String() != "attribute" || Kind(9).String() != "Kind(9)" {
		t.Error("Kind.String wrong")
	}
	if len(s.Objects()) != 7 {
		t.Error("Objects() wrong length")
	}
}

// TestMinimalConnectionIsNodeMinimum holds MinimalConnection to the
// brute-force node minimum of reference.SteinerMinimumNodes, on random
// schemes and on a hub scheme: three attributes, five entities over
// a0–a1, five over a1–a2, and a hub entity over all three, declared last,
// so that {a0, a1, a2, hub} is the only minimum.
func TestMinimalConnectionIsNodeMinimum(t *testing.T) {
	hub := []Object{{Name: "a0", Kind: KindAttribute}, {Name: "a1", Kind: KindAttribute}, {Name: "a2", Kind: KindAttribute}}
	for i := 0; i < 10; i++ {
		hub = append(hub, Object{Name: fmt.Sprintf("e%d", i), Kind: KindEntity,
			Components: []string{fmt.Sprintf("a%d", i/5), fmt.Sprintf("a%d", i/5+1)}})
	}
	hub = append(hub, Object{Name: "hub", Kind: KindEntity, Components: []string{"a0", "a1", "a2"}})
	schemes := []*Scheme{MustScheme(hub...)}
	queries := [][]string{{"a0", "a1", "a2"}}

	r := rand.New(rand.NewSource(24))
	for i := 0; i < 80; i++ {
		var objs []Object
		var names []string
		add := func(kind Kind, prefix string, n int, from []string, parts int) []string {
			var added []string
			for j := 0; j < n; j++ {
				o := Object{Name: fmt.Sprintf("%s%d", prefix, j), Kind: kind}
				for c := 0; c < parts && len(from) > 0; c++ {
					if part := from[r.Intn(len(from))]; !slices.Contains(o.Components, part) {
						o.Components = append(o.Components, part)
					}
				}
				objs = append(objs, o)
				added = append(added, o.Name)
			}
			names = append(names, added...)
			return added
		}
		attrs := add(KindAttribute, "a", 2+r.Intn(4), nil, 0)
		ents := add(KindEntity, "e", 1+r.Intn(4), attrs, 1+r.Intn(2))
		add(KindRelationship, "r", r.Intn(3), ents, 2)
		schemes = append(schemes, MustScheme(objs...))
		k := 2 + r.Intn(2)
		q := make([]string, k)
		for j, idx := range r.Perm(len(names))[:k] {
			q[j] = names[idx]
		}
		queries = append(queries, q)
	}

	for i, s := range schemes {
		q := queries[i]
		g := s.Graph()
		want := reference.SteinerMinimumNodes(g, g.IDs(q...))
		conn, err := s.MinimalConnection(context.Background(), q)
		switch {
		case want == -1 && err == nil:
			t.Fatalf("scheme %d %v: connected as %v, but no cover exists", i, q, conn)
		case want == -1:
		case err != nil:
			t.Fatalf("scheme %d %v: %v, want a %d-object connection", i, q, err, want)
		case len(conn.Objects) != want:
			t.Fatalf("scheme %d %v: minimal connection %v has %d objects, minimum %d", i, q, conn.Objects, len(conn.Objects), want)
		}
	}
}
