package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/bipartite"
	"repro/internal/chordality"
	"repro/internal/gen"
)

// EScaling (E-SCALE) measures the recognizers of Section 2 on growing
// γ-acyclic schemes, from 320 to 5,120 hyperedges (about 1k to 15k
// nodes): wall time per classification, each the minimum over several
// runs. The verdict asserts the *shape*: the log-log slope of time
// against |V|, taken from the first row, must stay below 1.5. Linear
// growth reads 1; the cubic scans the kernels replaced read about 2 or
// more.
func EScaling(ctx context.Context) Table {
	t := Table{
		ID:     "E-SCALE",
		Title:  "Recognizer scaling: full classification time vs graph size",
		Header: []string{"|V|", "|A|", "time per Classify", "slope", "verdict"},
	}
	r := rand.New(rand.NewSource(41))
	var n0 int
	var t0 time.Duration
	for _, m := range []int{320, 640, 1280, 2560, 5120} {
		h := gen.GammaAcyclic(r, m, 3, 3)
		b := bipartite.FromHypergraph(h).B
		// The fastest of several runs: a GC cycle or a descheduling lands
		// on single runs, and inside a mean one can read as a steeper
		// slope against the millisecond time of the first row.
		const runs = 7
		var el time.Duration
		for i := 0; i < runs; i++ {
			start := time.Now()
			chordality.Classify(b)
			if d := time.Since(start); i == 0 || d < el {
				el = d
			}
		}
		slope := "-"
		ok := true
		if t0 > 0 {
			s := math.Log(float64(el)/float64(t0)) / math.Log(float64(b.N())/float64(n0))
			slope = fmt.Sprintf("%.2f", s)
			ok = s < 1.5
		} else {
			n0, t0 = b.N(), el
		}
		t.Rows = append(t.Rows, []string{
			itoa(b.N()), itoa(b.M()),
			el.Round(time.Microsecond).String(), slope, verdict(ok),
		})
	}
	t.Notes = append(t.Notes,
		"one kernel per verdict, straight off the CSR arrays; the verdict requires the log-log slope of time against |V|, from the first row, below 1.5 (linear growth reads 1)")
	return t
}
