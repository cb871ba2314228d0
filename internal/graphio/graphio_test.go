package graphio

import (
	"strings"
	"testing"
)

func TestReadBipartite(t *testing.T) {
	in := `
# a comment
v1 A
v1 B
v2 r   # trailing comment
edge A r
edge B r
`
	b, err := ReadBipartite(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if b.N() != 3 || b.M() != 2 {
		t.Errorf("N=%d M=%d", b.N(), b.M())
	}
	if len(b.V1()) != 2 || len(b.V2()) != 1 {
		t.Error("sides wrong")
	}
}

func TestReadBipartiteErrors(t *testing.T) {
	cases := []string{
		"v1",
		"v1 A\nv1 A",
		"edge A B",
		"v1 A\nv2 r\nedge A missing",
		"v1 A\nv1 B\nedge A B",
		"bogus A",
		"v1 A\nv2 r\nedge A",
	}
	for _, in := range cases {
		if _, err := ReadBipartite(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestReadHypergraph(t *testing.T) {
	in := `
node a
edge e1 a b c
edge e2 c d
`
	h, err := ReadHypergraph(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != 4 || h.M() != 2 {
		t.Errorf("n=%d m=%d", h.N(), h.M())
	}
}

func TestReadHypergraphErrors(t *testing.T) {
	cases := []string{
		"node",
		"node a\nnode a",
		"edge onlyname",
		"wat x y",
	}
	for _, in := range cases {
		if _, err := ReadHypergraph(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}
