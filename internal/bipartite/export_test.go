package bipartite

import "repro/internal/graph"

// Lemma1Build is the memo-free build behind Lemma1Order.
func Lemma1Build(f *Frozen, comp graph.Bits) ([]int, bool) { return f.lemma1Build(comp) }

// Lemma1Builds reports how many component orderings f's memo has built,
// and whether the memo has been allocated at all.
func Lemma1Builds(f *Frozen) (builds int64, allocated bool) {
	m := f.lemma1.Load()
	if m == nil {
		return 0, false
	}
	return m.builds.Load(), true
}
