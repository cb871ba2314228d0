package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bipartite"
	"repro/internal/chordality"
	"repro/internal/gen"
)

// EScaling (E-SCALE) measures the polynomial recognizers of Section 2 on
// growing inputs: wall time per classification across sizes, each the
// minimum over several runs. The verdict asserts the *shape* — doubling
// the input must not blow the time up by more than a generous polynomial
// factor (×32 per doubling covers the O(m³) conformality scan with
// headroom while still rejecting exponential growth).
func EScaling(ctx context.Context) Table {
	t := Table{
		ID:     "E-SCALE",
		Title:  "Recognizer scaling: full classification time vs graph size",
		Header: []string{"|V|", "|A|", "time per Classify", "growth", "verdict"},
	}
	r := rand.New(rand.NewSource(41))
	var prev time.Duration
	for _, m := range []int{10, 20, 40, 80} {
		h := gen.GammaAcyclic(r, m, 3, 3)
		b := bipartite.FromHypergraph(h).B
		// The fastest of several runs: a GC cycle or a descheduling lands
		// on single runs, and inside a mean one can read as a growth past
		// x32 against the sub-millisecond time of the size before.
		const runs = 7
		var el time.Duration
		for i := 0; i < runs; i++ {
			start := time.Now()
			chordality.Classify(b)
			if d := time.Since(start); i == 0 || d < el {
				el = d
			}
		}
		growth := "-"
		ok := true
		if prev > 0 {
			f := float64(el) / float64(prev)
			growth = fmt.Sprintf("x%.1f", f)
			ok = f < 32
		}
		t.Rows = append(t.Rows, []string{
			itoa(b.N()), itoa(b.M()),
			el.Round(time.Microsecond).String(), growth, verdict(ok),
		})
		prev = el
	}
	t.Notes = append(t.Notes,
		"worst-case the O(m³) Gilmore conformality scan dominates; the verdict requires growth per size doubling under x32, a generous polynomial bound that still rejects exponential growth")
	return t
}
