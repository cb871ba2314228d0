package steiner

import (
	"context"

	"repro/internal/bipartite"
	"repro/internal/graph"
	"repro/internal/trace"
)

// This file isolates the *ablation* variants of the two design choices the
// reproduction had to pin down (see DESIGN.md §5 and README "Reproduction
// notes"). They exist so experiments can show each choice is load-bearing;
// production callers should use Algorithm1FrozenShared,
// Algorithm2FrozenShared or EliminateOrderedFrozen.

// Algorithm1WithOrder runs Algorithm 1's elimination pass with an
// arbitrary V2 ordering instead of the Lemma 1 ordering; ids in order that
// are out of range or not V2 nodes are skipped. On V1-chordal, V1-conformal
// graphs the result is a valid tree over the terminals but loses the
// V2-minimality guarantee — the ordering ablation of E-ABL1.
func Algorithm1WithOrder(ctx context.Context, fb *bipartite.Frozen, terminals, order []int) (Tree, error) {
	fg := fb.G()
	sc := getScratch(fg.N())
	defer sc.release()
	alive, err := componentAliveBits(fg, terminals, nil, sc, sc.alive)
	if err != nil {
		return Tree{}, err
	}
	v2 := make([]int, 0, len(order))
	for _, v := range order {
		if v >= 0 && v < fg.N() && fb.Side(v) == graph.Side2 {
			v2 = append(v2, v)
		}
	}
	return algorithm1Eliminate(ctx, trace.FromContext(ctx), fg, terminals, v2, alive, sc)
}

// EliminateOrderedStrict is EliminateOrderedFrozen under the *strict*
// reading of Definition 10's cover: a node is removable only when the
// WHOLE remaining subgraph stays connected, not just the terminals. A
// single strict pass can strand removable nodes behind pendant fragments,
// so the result may be redundant and non-minimum even on (6,2)-chordal
// graphs — the semantics ablation of E-ABL2. The context is checked every
// cancelStride removals.
func EliminateOrderedStrict(ctx context.Context, fg *graph.Frozen, terminals, order []int) (Tree, error) {
	sc := getScratch(fg.N())
	defer sc.release()
	alive, err := componentAliveBits(fg, terminals, nil, sc, sc.alive)
	if err != nil {
		return Tree{}, err
	}
	term := termMask(sc, terminals)
	for i, v := range order {
		if i&(cancelStride-1) == 0 {
			if err := ctx.Err(); err != nil {
				return Tree{}, err
			}
		}
		if v < 0 || v >= fg.N() || !alive.Has(v) || term.Has(v) {
			continue
		}
		alive.Clear(v)
		if !coversBits(fg, alive, term, terminals, sc.bit) {
			alive.Set(v)
		}
	}
	return spanningTreeBits(fg, alive, sc)
}
