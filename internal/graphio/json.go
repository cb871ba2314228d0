package graphio

import (
	"encoding/json"
	"io"

	"repro/internal/bipartite"
	"repro/internal/chordality"
)

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
	cl := chordality.Classify(b)
	d1, d2 := cl.Degrees()
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
		H1Degree:    d1.String(),
		H2Degree:    d2.String(),
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
