package chordal_test

import (
	"context"
	"testing"

	chordal "repro"
)

// TestFacadeQuickstart exercises the public facade end to end, mirroring
// the README snippet.
func TestFacadeQuickstart(t *testing.T) {
	b := chordal.NewBipartite()
	reader := b.AddV1("reader")
	book := b.AddV1("book")
	borrows := b.AddV2("borrows")
	b.AddEdge(reader, borrows)
	b.AddEdge(book, borrows)

	cl := chordal.Classify(b)
	if !cl.Chordal41 || !cl.Chordal62 {
		t.Fatalf("tiny scheme classification wrong: %+v", cl)
	}

	conn := chordal.NewConnector(b)
	answer, err := conn.Connect(context.Background(), []int{reader, book})
	if err != nil {
		t.Fatal(err)
	}
	if answer.Tree.Nodes.Len() != 3 || !answer.Optimal {
		t.Errorf("answer = %+v", answer)
	}
}

func TestFacadeAlgorithms(t *testing.T) {
	h := chordal.NewHypergraph()
	h.AddEdgeLabels("r1", "a", "b")
	h.AddEdgeLabels("r2", "b", "c")
	b := chordal.FromHypergraph(h)
	g := b.G()
	terms := []int{g.MustID("a"), g.MustID("c")}
	conn := chordal.NewConnector(b)
	solve := func(m chordal.Method) chordal.Tree {
		t.Helper()
		answer, err := conn.Connect(context.Background(), terms, chordal.WithMethod(m))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if answer.Method != m {
			t.Fatalf("forced %v, answered by %v", m, answer.Method)
		}
		return answer.Tree
	}

	t1 := solve(chordal.MethodAlgorithm1)
	t2 := solve(chordal.MethodAlgorithm2)
	ex := solve(chordal.MethodExact)
	if t2.Nodes.Len() != ex.Nodes.Len() {
		t.Errorf("Algorithm2 %d vs exact %d", t2.Nodes.Len(), ex.Nodes.Len())
	}
	if t1.Nodes.Len() < ex.Nodes.Len() {
		t.Errorf("Algorithm1 produced an impossible tree")
	}
}

func TestFacadeGraphType(t *testing.T) {
	g := chordal.NewGraph()
	g.AddEdgeLabels("x", "y")
	if g.N() != 2 || g.M() != 1 {
		t.Error("facade graph broken")
	}
}
