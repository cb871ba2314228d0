package graph

import (
	"math/rand"
	"testing"
)

// wordBoundarySizes are the node counts the kernel equivalence sweeps pin:
// a single word partially filled, exactly one word, one word plus a bit,
// and the same around the two-word boundary — the off-by-one shapes where
// padding-bit bugs live.
var wordBoundarySizes = []int{1, 63, 64, 65, 127, 128, 129}

func TestBitsOps(t *testing.T) {
	for _, n := range wordBoundarySizes {
		b := NewBits(n)
		b.FillN(n)
		if got := b.Count(); got != n {
			t.Fatalf("n=%d: FillN count = %d", n, got)
		}
		// Padding must be clear: AppendOnes may not report ghosts.
		ones := b.AppendOnes(nil)
		if len(ones) != n || (n > 0 && ones[n-1] != n-1) {
			t.Fatalf("n=%d: AppendOnes = %v", n, ones)
		}
		b.Clear(n - 1)
		if b.Has(n-1) || b.Count() != n-1 {
			t.Fatalf("n=%d: Clear failed", n)
		}
		b.Set(n - 1)
		if !b.Has(n - 1) {
			t.Fatalf("n=%d: Set failed", n)
		}
		c := NewBits(n)
		c.CopyFrom(b)
		if !c.SubsetOf(b) || !b.SubsetOf(c) {
			t.Fatalf("n=%d: CopyFrom/SubsetOf failed", n)
		}
		c.Reset()
		if !c.Empty() || !c.SubsetOf(b) {
			t.Fatalf("n=%d: Reset/Empty failed", n)
		}
		if got := c.First(); got != -1 {
			t.Fatalf("n=%d: First of an empty mask = %d", n, got)
		}
		c.Set(n - 1)
		if got := c.First(); got != n-1 {
			t.Fatalf("n=%d: First = %d, want %d", n, got, n-1)
		}
	}
}

// csrView strips the matrix off a frozen view so the same kernel call
// exercises the CSR fallback path.
func csrView(t testing.TB, f *Frozen) *Frozen {
	t.Helper()
	offsets, neighbors := f.CSR()
	g, err := RestoreFrozen(f.NodeLabels(), offsets, neighbors, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// packAlive packs an alive mask into Bits; nil (all alive) stays nil.
func packAlive(alive []bool) Bits {
	if alive == nil {
		return nil
	}
	b := NewBits(len(alive))
	for v, ok := range alive {
		if ok {
			b.Set(v)
		}
	}
	return b
}

// randomAlive returns a random alive mask over n nodes that always keeps
// start alive; roughly 1 in 4 masks is nil (all alive).
func randomAlive(r *rand.Rand, n, start int) []bool {
	if r.Intn(4) == 0 {
		return nil
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = r.Intn(3) > 0
	}
	alive[start] = true
	return alive
}

// TestBitKernelsMatchCSRAtWordBoundaries sweeps the word-boundary sizes
// and random alive masks (including masks whose last word is partially
// filled — every non-multiple-of-64 size has one) asserting the matrix
// kernels, the CSR fallbacks, and the mutable graph's []bool walks agree
// bit for bit.
func TestBitKernelsMatchCSRAtWordBoundaries(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	for _, n := range wordBoundarySizes {
		for trial := 0; trial < 8; trial++ {
			g := randomGraph(r, n, 2.5/float64(n+1))
			fm := g.Freeze() // matrix compiled (n ≤ matrixMaxN)
			fc := csrView(t, fm)
			if !fm.HasMatrix() || fc.HasMatrix() {
				t.Fatalf("n=%d: matrix presence wrong", n)
			}
			scm, scc := NewBitScratch(n), NewBitScratch(n)
			for probe := 0; probe < 6; probe++ {
				start := r.Intn(n)
				alive := randomAlive(r, n, start)
				aliveBits := packAlive(alive)

				want := g.BFSDistancesAlive(start, alive) // reference walk
				distM := make([]int32, n)
				distC := make([]int32, n)
				fm.BFSDistancesBits(start, aliveBits, distM, scm)
				fc.BFSDistancesBits(start, aliveBits, distC, scc)
				for v := 0; v < n; v++ {
					if int(distM[v]) != want[v] || int(distC[v]) != want[v] {
						t.Fatalf("n=%d start=%d: dist[%d] matrix=%d csr=%d want=%d",
							n, start, v, distM[v], distC[v], want[v])
					}
				}

				reachM := fm.Reachable(start, aliveBits, scm)
				for v := 0; v < n; v++ {
					if reachM.Has(v) != (want[v] >= 0) {
						t.Fatalf("n=%d: matrix Reachable[%d] = %v, dist %d", n, v, reachM.Has(v), want[v])
					}
				}
				reachC := fc.Reachable(start, aliveBits, scc)
				for v := 0; v < n; v++ {
					if reachC.Has(v) != (want[v] >= 0) {
						t.Fatalf("n=%d: csr Reachable[%d] = %v, dist %d", n, v, reachC.Has(v), want[v])
					}
				}

				// Probe ReachesAll against the distances: targets a random
				// subset of alive nodes.
				targets := NewBits(n)
				covered := true
				for i := 0; i < 3; i++ {
					v := r.Intn(n)
					if alive != nil && !alive[v] {
						covered = false
					}
					if want[v] < 0 {
						covered = false
					}
					targets.Set(v)
				}
				if got := fm.ReachesAll(start, aliveBits, targets, scm); got != covered {
					t.Fatalf("n=%d: matrix ReachesAll = %v, want %v (targets %v)", n, got, covered, targets.AppendOnes(nil))
				}
				if got := fc.ReachesAll(start, aliveBits, targets, scc); got != covered {
					t.Fatalf("n=%d: csr ReachesAll = %v, want %v", n, got, covered)
				}
			}

			// ComponentBits vs ComponentContaining on random seed sets.
			for probe := 0; probe < 4; probe++ {
				k := 1 + r.Intn(3)
				seeds := make([]int, k)
				for i := range seeds {
					seeds[i] = r.Intn(n)
				}
				comp := g.ComponentContaining(seeds)
				gotM, okM := fm.ComponentBits(seeds, scm)
				gotC, okC := fc.ComponentBits(seeds, scc)
				if (comp == nil) != !okM || (comp == nil) != !okC {
					t.Fatalf("n=%d seeds=%v: nil-ness disagrees (comp=%v okM=%v okC=%v)", n, seeds, comp == nil, okM, okC)
				}
				if comp == nil {
					continue
				}
				want := NewBits(n)
				for _, v := range comp {
					want.Set(v)
				}
				for v := 0; v < n; v++ {
					if gotM.Has(v) != want.Has(v) || gotC.Has(v) != want.Has(v) {
						t.Fatalf("n=%d seeds=%v: component bit %d disagrees", n, seeds, v)
					}
				}
			}
		}
	}
}
