package bipartite_test

import (
	"math/rand"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/gen"
	"repro/internal/graph"
)

func TestFrozenMirrorsBipartite(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		b := gen.RandomBipartite(r, 3+r.Intn(12), 3+r.Intn(12), 0.3)
		f := b.Freeze()
		if f.N() != b.N() || f.M() != b.M() {
			t.Fatalf("size mismatch")
		}
		for v := 0; v < b.N(); v++ {
			if f.Side(v) != b.Side(v) {
				t.Fatalf("side mismatch at %d", v)
			}
		}
		v1, v2 := b.V1(), b.V2()
		if len(f.V1()) != len(v1) || len(f.V2()) != len(v2) {
			t.Fatalf("partition size mismatch")
		}
		for i, v := range f.V1() {
			if v != v1[i] {
				t.Fatalf("V1[%d] mismatch", i)
			}
		}
		for i, v := range f.V2() {
			if v != v2[i] {
				t.Fatalf("V2[%d] mismatch", i)
			}
		}
		th := f.Thaw()
		if th.N() != b.N() || th.M() != b.M() {
			t.Fatalf("Thaw size mismatch")
		}
	}
}

func TestFrozenHypergraphAliveMatchesInduced(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		b := gen.RandomConnectedBipartite(r, 3+r.Intn(8), 3+r.Intn(8), 0.3)
		f := b.Freeze()
		// Restrict to a random connected-ish subset containing node 0.
		alive := graph.NewBits(b.N())
		for v := 0; v < b.N(); v++ {
			if r.Float64() < 0.75 || v == 0 {
				alive.Set(v)
			}
		}
		sub, _ := b.Induced(alive.AppendOnes(nil))
		want := sub.HypergraphV1().H
		got := f.HypergraphV1AliveBits(alive).H
		if !want.Equal(got) {
			t.Fatalf("alive-restricted H1 differs from induced H1:\n%v\n%v", want, got)
		}
	}
}

func TestFrozenIsSnapshot(t *testing.T) {
	b := bipartite.New()
	a := b.AddV1("a")
	r1 := b.AddV2("r1")
	b.AddEdge(a, r1)
	f := b.Freeze()
	r2 := b.AddV2("r2")
	b.AddEdge(a, r2)
	if f.N() != 2 || f.M() != 1 {
		t.Fatal("frozen bipartite view changed after mutation")
	}
	if f.Side(a) != graph.Side1 || f.Side(r1) != graph.Side2 {
		t.Fatal("sides wrong in snapshot")
	}
}
