package chordal_test

import (
	"context"
	"fmt"

	chordal "repro"
)

// Example classifies the paper's Fig 3c graph (a 6-cycle with one chord)
// and answers a connection query.
func Example() {
	b := chordal.NewBipartite()
	for _, l := range []string{"A", "B", "C"} {
		b.AddV1(l)
	}
	for _, l := range []string{"1", "2", "3"} {
		b.AddV2(l)
	}
	g := b.G()
	for _, arc := range [][2]string{
		{"A", "1"}, {"B", "1"}, {"B", "2"}, {"C", "2"}, {"C", "3"}, {"A", "3"}, {"C", "1"},
	} {
		b.AddEdge(g.MustID(arc[0]), g.MustID(arc[1]))
	}

	cl := chordal.Classify(b)
	fmt.Println("(6,1)-chordal:", cl.Chordal61)
	fmt.Println("(6,2)-chordal:", cl.Chordal62)

	// Not (6,2)-chordal, so the connector dispatches Algorithm 1: the
	// answer minimizes the number of V2 nodes (one: the hub 1), not the
	// total node count — exactly the distinction the paper's remark after
	// Corollary 4 makes on this very graph.
	conn := chordal.NewConnector(b)
	answer, err := conn.Connect(context.Background(), g.IDs("A", "B"))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("V2-minimum guaranteed:", answer.V2Optimal)
	fmt.Println("total-minimum guaranteed:", answer.Optimal)
	// Output:
	// (6,1)-chordal: true
	// (6,2)-chordal: false
	// V2-minimum guaranteed: true
	// total-minimum guaranteed: false
}

// ExampleClassify shows the hypergraph view of a relational scheme: the
// classic covered triangle is α-acyclic but no stronger.
func ExampleClassify() {
	h := chordal.NewHypergraph()
	h.AddEdgeLabels("r1", "a", "b")
	h.AddEdgeLabels("r2", "b", "c")
	h.AddEdgeLabels("r3", "c", "a")
	h.AddEdgeLabels("all", "a", "b", "c")
	fmt.Println(h.Classify())

	b := chordal.FromHypergraph(h)
	cl := chordal.Classify(b)
	fmt.Println("V1-chordal and V1-conformal:", cl.AlphaV1())
	fmt.Println("(6,1)-chordal:", cl.Chordal61)
	// Output:
	// alpha-acyclic
	// V1-chordal and V1-conformal: true
	// (6,1)-chordal: false
}

// ExampleConnector_forcedMethod plans a relation-minimal connection on an
// α-acyclic scheme with Algorithm 1 forced: connecting a and d needs both
// relations.
func ExampleConnector_forcedMethod() {
	h := chordal.NewHypergraph()
	h.AddEdgeLabels("r1", "a", "b", "c")
	h.AddEdgeLabels("r2", "c", "d")
	b := chordal.FromHypergraph(h)
	g := b.G()

	conn := chordal.NewConnector(b)
	answer, err := conn.Connect(context.Background(), g.IDs("a", "d"),
		chordal.WithMethod(chordal.MethodAlgorithm1))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("relations used:", answer.Tree.CountSide(func(v int) bool {
		_, isRel := map[string]bool{"r1": true, "r2": true}[g.Label(v)]
		return isRel
	}))
	// Output:
	// relations used: 2
}
