// Quickstart: build a bipartite conceptual scheme, classify it against the
// paper's chordality taxonomy, and answer minimal-connection queries with
// the v2 API — Open once, then context-aware, option-driven Connect calls.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	chordal "repro"
	"repro/internal/steiner"
)

func main() {
	// A small library schema as a bipartite graph: V1 holds attributes,
	// V2 holds relation schemes.
	b := chordal.NewBipartite()
	attrs := map[string]int{}
	for _, a := range []string{"reader", "book", "author", "branch"} {
		attrs[a] = b.AddV1(a)
	}
	// A slice, not a map, so node ids and therefore the printed order are
	// the same on every run.
	for _, rel := range []struct {
		name string
		over []string
	}{
		{"borrows", []string{"reader", "book"}},
		{"wrote", []string{"author", "book"}},
		{"stocks", []string{"branch", "book"}},
	} {
		r := b.AddV2(rel.name)
		for _, a := range rel.over {
			b.AddEdge(attrs[a], r)
		}
	}

	// Compile + classify once; the service picks the strongest applicable
	// algorithm for every query (Theorems 3 and 5), caches answers, and
	// honors deadlines inside the solvers.
	svc := chordal.Open(b, chordal.WithCacheSize(256))
	conn := svc.Connector()
	fmt.Print(conn.Describe())

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()

	// "Connect reader and author": which relations must a query over
	// those attributes join? Ask for ranked alternatives in the same call.
	answer, err := svc.Connect(ctx, []int{attrs["reader"], attrs["author"]},
		chordal.WithInterpretations(b.G().N(), 3))
	if err != nil {
		log.Fatal(err)
	}
	g := b.G()
	fmt.Printf("\nquery {reader, author} answered by %s:\n", answer.Method)
	fmt.Printf("  connection: %s\n", strings.Join(g.Labels(answer.Tree.Nodes), " "))
	fmt.Printf("  relations used: %d (V2-minimum: %v)\n",
		steiner.V2Count(b, answer.Tree), answer.V2Optimal)
	fmt.Printf("  rationale: %s\n", answer.Rationale)

	// Ranked alternatives, most immediate interpretation first.
	fmt.Println("\nranked interpretations:")
	for i, in := range answer.Interps {
		fmt.Printf("  %d. %s\n", i+1, strings.Join(g.Labels(in.Nodes), " "))
	}

	// Malformed queries are rejected at the boundary with typed errors.
	if _, err := svc.Connect(ctx, []int{attrs["reader"], attrs["reader"]}); err != nil {
		fmt.Printf("\nduplicate terminal rejected: %v\n", err)
	}
}
