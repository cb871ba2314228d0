package graphio

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/fixtures"
)

func TestReport(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteReport(&buf, fixtures.Fig3c()); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("%v in %s", err, buf.String())
	}
	if rep.Nodes != 6 || !rep.Chordal61 || rep.Chordal62 {
		t.Errorf("report = %+v", rep)
	}
	if rep.H1Degree != "beta-acyclic" {
		t.Errorf("H1Degree = %q", rep.H1Degree)
	}
	if !strings.Contains(buf.String(), "\"chordal61\": true") {
		t.Errorf("unexpected JSON: %s", buf.String())
	}
}
