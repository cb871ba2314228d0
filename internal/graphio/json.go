package graphio

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/bipartite"
	"repro/internal/chordality"
	"repro/internal/graph"
	"repro/internal/hypergraph"
)

// BipartiteJSON is the JSON wire form of a bipartite graph.
type BipartiteJSON struct {
	V1    []string    `json:"v1"`
	V2    []string    `json:"v2"`
	Edges [][2]string `json:"edges"`
}

// MarshalBipartite encodes b as JSON.
func MarshalBipartite(b *bipartite.Graph) ([]byte, error) {
	g := b.G()
	out := BipartiteJSON{
		V1: g.Labels(b.V1()),
		V2: g.Labels(b.V2()),
	}
	for _, e := range g.Edges() {
		u, v := e.U, e.V
		if b.Side(u) == graph.Side2 {
			u, v = v, u
		}
		out.Edges = append(out.Edges, [2]string{g.Label(u), g.Label(v)})
	}
	return json.MarshalIndent(out, "", "  ")
}

// UnmarshalBipartite decodes a BipartiteJSON document.
func UnmarshalBipartite(data []byte) (*bipartite.Graph, error) {
	var in BipartiteJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	b := bipartite.New()
	for _, l := range in.V1 {
		if _, dup := b.G().ID(l); dup {
			return nil, fmt.Errorf("graphio: duplicate node %q", l)
		}
		b.AddV1(l)
	}
	for _, l := range in.V2 {
		if _, dup := b.G().ID(l); dup {
			return nil, fmt.Errorf("graphio: duplicate node %q", l)
		}
		b.AddV2(l)
	}
	for _, e := range in.Edges {
		u, ok := b.G().ID(e[0])
		if !ok {
			return nil, fmt.Errorf("graphio: unknown node %q", e[0])
		}
		v, ok := b.G().ID(e[1])
		if !ok {
			return nil, fmt.Errorf("graphio: unknown node %q", e[1])
		}
		if b.Side(u) == b.Side(v) {
			return nil, fmt.Errorf("graphio: edge %s-%s joins one side", e[0], e[1])
		}
		b.AddEdge(u, v)
	}
	return b, nil
}

// HypergraphJSON is the JSON wire form of a hypergraph.
type HypergraphJSON struct {
	Nodes []string            `json:"nodes"`
	Edges map[string][]string `json:"edges"`
	// EdgeOrder preserves the edge family's order and duplicates (JSON
	// maps cannot); when present it lists edge names in order and Edges
	// may omit entries for duplicates named name#k.
	EdgeOrder []string `json:"edgeOrder,omitempty"`
}

// MarshalHypergraph encodes h as JSON.
func MarshalHypergraph(h *hypergraph.Hypergraph) ([]byte, error) {
	out := HypergraphJSON{Edges: map[string][]string{}}
	for v := 0; v < h.N(); v++ {
		out.Nodes = append(out.Nodes, h.NodeLabel(v))
	}
	seen := map[string]bool{}
	for i := 0; i < h.M(); i++ {
		name := h.EdgeName(i)
		if name == "" {
			name = fmt.Sprintf("e%d", i)
		}
		for seen[name] {
			name = fmt.Sprintf("%s#%d", name, i)
		}
		seen[name] = true
		out.Edges[name] = h.NodeLabels(h.Edge(i))
		out.EdgeOrder = append(out.EdgeOrder, name)
	}
	return json.MarshalIndent(out, "", "  ")
}

// UnmarshalHypergraph decodes a HypergraphJSON document.
func UnmarshalHypergraph(data []byte) (*hypergraph.Hypergraph, error) {
	var in HypergraphJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	h := hypergraph.New()
	for _, l := range in.Nodes {
		if _, dup := h.NodeID(l); dup {
			return nil, fmt.Errorf("graphio: duplicate node %q", l)
		}
		h.AddNode(l)
	}
	order := in.EdgeOrder
	if order == nil {
		for name := range in.Edges {
			order = append(order, name)
		}
	}
	for _, name := range order {
		members, ok := in.Edges[name]
		if !ok {
			return nil, fmt.Errorf("graphio: edgeOrder names unknown edge %q", name)
		}
		if len(members) == 0 {
			return nil, fmt.Errorf("graphio: edge %q is empty", name)
		}
		h.AddEdgeLabels(name, members...)
	}
	return h, nil
}

// Report is the JSON classification report emitted by WriteReport: the
// complete Theorem 1 taxonomy of a bipartite graph.
type Report struct {
	Nodes       int    `json:"nodes"`
	Arcs        int    `json:"arcs"`
	V1          int    `json:"v1"`
	V2          int    `json:"v2"`
	Chordal41   bool   `json:"chordal41"`
	Chordal62   bool   `json:"chordal62"`
	Chordal61   bool   `json:"chordal61"`
	V1Chordal   bool   `json:"v1Chordal"`
	V1Conformal bool   `json:"v1Conformal"`
	V2Chordal   bool   `json:"v2Chordal"`
	V2Conformal bool   `json:"v2Conformal"`
	H1Degree    string `json:"h1Degree"`
	H2Degree    string `json:"h2Degree"`
}

// NewReport classifies b into a serializable report.
func NewReport(b *bipartite.Graph) Report {
	fb := b.Freeze()
	cl := chordality.ClassifyFrozen(fb)
	return Report{
		Nodes:       b.N(),
		Arcs:        b.M(),
		V1:          len(b.V1()),
		V2:          len(b.V2()),
		Chordal41:   cl.Chordal41,
		Chordal62:   cl.Chordal62,
		Chordal61:   cl.Chordal61,
		V1Chordal:   cl.V1Chordal,
		V1Conformal: cl.V1Conformal,
		V2Chordal:   cl.V2Chordal,
		V2Conformal: cl.V2Conformal,
		H1Degree:    fb.HypergraphV1().H.Classify().String(),
		H2Degree:    fb.HypergraphV2().H.Classify().String(),
	}
}

// WriteReport writes the JSON classification report of b.
func WriteReport(w io.Writer, b *bipartite.Graph) error {
	data, err := json.MarshalIndent(NewReport(b), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
