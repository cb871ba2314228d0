package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	failed, err := run([]string{"-only", "E-FIG5"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Errorf("E-FIG5 failed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "E-FIG5") {
		t.Errorf("output missing table:\n%s", out.String())
	}
}

func TestRunMarkdown(t *testing.T) {
	var out bytes.Buffer
	failed, err := run([]string{"-markdown", "-only", "E-FIG5"}, &out)
	if err != nil || failed != 0 {
		t.Fatalf("failed=%d err=%v", failed, err)
	}
	if !strings.Contains(out.String(), "### E-FIG5") {
		t.Errorf("markdown heading missing:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "|---|") {
		t.Errorf("markdown table missing:\n%s", out.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var out bytes.Buffer
	if _, err := run([]string{"-nope"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
}

// timedColumns maps an experiment to the cells of its table rows that
// report wall time: E-T2's exact and Algorithm 1 times, E-T4's time per
// Algorithm 1 run and its time per |V|·|A| unit, E-SCALE's time per
// Classify and its growth ratio.
var timedColumns = map[string][]int{
	"E-T2":    {3, 4},
	"E-T4":    {3, 4},
	"E-SCALE": {2, 3},
}

// maskTimings replaces the timedColumns cells of every table row (the rows
// below a table's |---| separator) with "~", leaving every other byte.
func maskTimings(md string) string {
	lines := strings.Split(md, "\n")
	var cols []int
	rows := false
	for i, line := range lines {
		switch {
		case strings.HasPrefix(line, "### "):
			id, _, _ := strings.Cut(strings.TrimPrefix(line, "### "), " ")
			cols, rows = timedColumns[id], false
		case strings.HasPrefix(line, "|---"):
			rows = true
		case rows && cols != nil && strings.HasPrefix(line, "| ") && strings.HasSuffix(line, " |"):
			cells := strings.Split(line[2:len(line)-2], " | ")
			for _, c := range cols {
				if c < len(cells) {
					cells[c] = "~"
				}
			}
			lines[i] = "| " + strings.Join(cells, " | ") + " |"
		}
	}
	return strings.Join(lines, "\n")
}

// TestMarkdownMatchesExperimentsMD regenerates every experiment's markdown
// and holds it to the checked-in EXPERIMENTS.md byte for byte, except for
// the wall-time cells maskTimings masks on both sides: they differ from
// run to run and machine to machine, everything else must not.
func TestMarkdownMatchesExperimentsMD(t *testing.T) {
	checkedIn, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	failed, err := run([]string{"-markdown"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if failed != 0 {
		t.Errorf("%d experiment(s) failed", failed)
	}
	got := strings.Split(maskTimings(out.String()), "\n")
	want := strings.Split(maskTimings(string(checkedIn)), "\n")
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("EXPERIMENTS.md line %d differs from a fresh -markdown run (wall-time cells masked):\nchecked in: %q\nfresh:      %q", i+1, w, g)
		}
	}
}

func TestMaskTimings(t *testing.T) {
	md := "### E-SCALE — x\n\n| |V| | |A| | time | growth | verdict |\n|---|---|---|---|---|\n| 29 | 26 | 1ms | x3.0 | PASS |\n\n" +
		"### E-FIG5 — y\n\n| a | b | c | d |\n|---|---|---|---|\n| 1 | 2 | 3 | 4 |\n"
	want := "### E-SCALE — x\n\n| |V| | |A| | time | growth | verdict |\n|---|---|---|---|---|\n| 29 | 26 | ~ | ~ | PASS |\n\n" +
		"### E-FIG5 — y\n\n| a | b | c | d |\n|---|---|---|---|\n| 1 | 2 | 3 | 4 |\n"
	if got := maskTimings(md); got != want {
		t.Errorf("maskTimings:\n%s\nwant:\n%s", got, want)
	}
}
