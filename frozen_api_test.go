package chordal_test

import (
	"context"
	"sync"
	"testing"

	chordal "repro"
)

// TestFacadeFrozenService exercises the compiled-scheme serving surface of
// the facade: Freeze, ClassifyFrozen, Open, ConnectBatch.
func TestFacadeFrozenService(t *testing.T) {
	b := chordal.NewBipartite()
	labels := []string{"A", "B", "C", "D"}
	var v1 []int
	for _, l := range labels {
		v1 = append(v1, b.AddV1(l))
	}
	r1 := b.AddV2("r1")
	r2 := b.AddV2("r2")
	r3 := b.AddV2("r3")
	b.AddEdge(v1[0], r1)
	b.AddEdge(v1[1], r1)
	b.AddEdge(v1[1], r2)
	b.AddEdge(v1[2], r2)
	b.AddEdge(v1[2], r3)
	b.AddEdge(v1[3], r3)

	fb := chordal.Freeze(b)
	if got, want := chordal.ClassifyFrozen(fb), chordal.Classify(b); got != want {
		t.Fatalf("ClassifyFrozen = %+v, Classify = %+v", got, want)
	}
	fg := chordal.FreezeGraph(b.G())
	if fg.N() != b.N() || fg.M() != b.M() {
		t.Fatalf("FreezeGraph size mismatch")
	}

	conn := chordal.NewConnector(b)
	if conn.Frozen() == nil {
		t.Fatal("connector should expose its frozen view")
	}
	svc := chordal.Open(b, chordal.WithWorkers(4), chordal.WithCacheSize(8))

	queries := [][]int{
		{v1[0], v1[3]},
		{v1[0], v1[2]},
		{v1[0], v1[3]}, // duplicate
	}
	var wg sync.WaitGroup
	results := make([][]chordal.BatchResult, 4)
	for w := range results {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = svc.ConnectBatch(context.Background(), queries)
		}(w)
	}
	wg.Wait()
	for _, res := range results {
		if len(res) != len(queries) {
			t.Fatalf("batch returned %d results", len(res))
		}
		for i, r := range res {
			if r.Err != nil {
				t.Fatalf("query %d: %v", i, r.Err)
			}
		}
		if !res[0].Conn.Tree.Nodes.Equal(res[2].Conn.Tree.Nodes) {
			t.Error("duplicate queries disagree")
		}
	}
	st := svc.Stats()
	if st.Misses > uint64(len(queries)) {
		t.Errorf("expected at most %d distinct computations, stats %+v", len(queries), st)
	}
}
