package bipartite

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/hypergraph"
)

// Frozen is an immutable compiled view of a bipartite Graph: the frozen CSR
// graph plus the (V1, V2) partition. Like graph.Frozen its graph and
// partition never change after Freeze returns and it is safe for
// unsynchronized concurrent readers; it is the scheme representation
// core.Connector compiles once and serves queries from.
//
// The one exception is the write-once memo behind Lemma1Order: each
// connected component's Lemma 1 ordering is derived from the immutable
// graph on first use, published atomically and never changed after, so
// it lives and dies with the Frozen (one compiled epoch) and concurrent
// readers still need no synchronization of their own.
type Frozen struct {
	g    *graph.Frozen
	side []graph.Side
	v1   []int
	v2   []int

	lemma1 atomic.Pointer[lemma1Memo] // nil until the first Lemma1Order
}

// lemma1Memo holds the per-component Lemma 1 orderings of one Frozen.
// slots is indexed by node id but only a component's lowest id — its key —
// is ever filled, so a read is two atomic loads and no hashing or boxing.
type lemma1Memo struct {
	slots  []atomic.Pointer[lemma1Entry]
	builds atomic.Int64 // orderings built, for tests
}

// lemma1Entry is one component's ordering and α-acyclicity verdict. done
// publishes order and ok: once it reads true they are never written again.
type lemma1Entry struct {
	mu    sync.Mutex
	done  atomic.Bool
	order []int
	ok    bool
}

// Freeze compiles b into its immutable view. The snapshot is deep: later
// mutation of b does not affect the Frozen.
func (b *Graph) Freeze() *Frozen {
	f := &Frozen{
		g:    b.g.Freeze(),
		side: append([]graph.Side(nil), b.side...),
	}
	for v, s := range f.side {
		if s == graph.Side1 {
			f.v1 = append(f.v1, v)
		} else {
			f.v2 = append(f.v2, v)
		}
	}
	return f
}

// RestoreFrozen assembles a Frozen from a restored graph and its side
// assignment — the serialization inverse of Freeze, used by
// internal/snapshot to revive a compiled epoch. side is adopted, not
// copied, and must not be modified afterwards. The bipartite invariants are
// verified: one side per node, every side either Side1 or Side2, every edge
// crossing sides.
func RestoreFrozen(g *graph.Frozen, side []graph.Side) (*Frozen, error) {
	if len(side) != g.N() {
		return nil, fmt.Errorf("bipartite: restore: %d side entries for %d nodes", len(side), g.N())
	}
	f := &Frozen{g: g, side: side}
	for v, s := range side {
		switch s {
		case graph.Side1:
			f.v1 = append(f.v1, v)
		case graph.Side2:
			f.v2 = append(f.v2, v)
		default:
			return nil, fmt.Errorf("bipartite: restore: node %d has invalid side %d", v, s)
		}
		for _, w := range g.Neighbors(v) {
			if side[w] == s {
				return nil, fmt.Errorf("bipartite: restore: edge %d-%d inside one side", v, w)
			}
		}
	}
	return f, nil
}

// G returns the underlying frozen graph.
func (f *Frozen) G() *graph.Frozen { return f.g }

// Sides returns the side of every node, indexed by id. The slice is shared
// and must not be modified.
func (f *Frozen) Sides() []graph.Side { return f.side }

// N returns the number of nodes.
func (f *Frozen) N() int { return f.g.N() }

// M returns the number of arcs.
func (f *Frozen) M() int { return f.g.M() }

// Side returns which side node v is on.
func (f *Frozen) Side(v int) graph.Side { return f.side[v] }

// V1 returns the ids of the V1 nodes in increasing order. The slice is
// shared and must not be modified.
func (f *Frozen) V1() []int { return f.v1 }

// V2 returns the ids of the V2 nodes in increasing order. The slice is
// shared and must not be modified.
func (f *Frozen) V2() []int { return f.v2 }

// Lemma1Order returns the Lemma 1 elimination ordering W = v₁², …, v_q² of
// the V2 nodes of one connected component — comp must be exactly the mask
// of a component, as graph.Frozen.ComponentBits returns it — and whether
// H¹ of the component is α-acyclic. ok == false means the component is not
// V1-chordal and V1-conformal, so no ordering exists. The ordering is the
// same for every call, and the caller must not modify it.
//
// Each component's ordering is built once, on its first call, and keyed by
// the component's lowest node id; concurrent first callers wait for that
// one build. Later calls are lock-free and allocate nothing. Nothing is
// allocated for a Frozen that is never asked.
func (f *Frozen) Lemma1Order(comp graph.Bits) (order []int, ok bool) {
	m := f.lemma1.Load()
	if m == nil {
		m = &lemma1Memo{slots: make([]atomic.Pointer[lemma1Entry], f.N())}
		if !f.lemma1.CompareAndSwap(nil, m) {
			m = f.lemma1.Load()
		}
	}
	slot := &m.slots[comp.First()]
	e := slot.Load()
	if e == nil {
		e = &lemma1Entry{}
		if !slot.CompareAndSwap(nil, e) {
			e = slot.Load()
		}
	}
	if !e.done.Load() {
		e.build(f, m, comp)
	}
	return e.order, e.ok
}

// build fills e unless a concurrent caller already has. A panicking build
// leaves e unpublished, so the next caller retries instead of reading a
// half-built entry.
func (e *lemma1Entry) build(f *Frozen, m *lemma1Memo, comp graph.Bits) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done.Load() {
		return
	}
	m.builds.Add(1)
	e.order, e.ok = f.lemma1Build(comp)
	e.done.Store(true)
}

// lemma1Build computes, without the memo, what Lemma1Order returns for
// the component comp: H¹ of the component is built straight off the CSR
// arrays, and its greedy maximum-cardinality edge order is verified to
// have the running intersection property (failure is exactly
// non-α-acyclicity). Greedy edge order and the check are deterministic
// over edge indices, and the component restriction preserves relative
// node and edge order, so the result is the ordering built on the induced
// subgraph of the component, mapped back to original ids. A V2 node
// without neighbours is its own component and comes out as its one-node
// ordering.
func (f *Frozen) lemma1Build(comp graph.Bits) (order []int, ok bool) {
	corr := f.HypergraphV1AliveBits(comp)
	rip := corr.H.GreedyEdgeOrder()
	if corr.H.VerifyRunningIntersection(rip) != -1 {
		return nil, false
	}
	seen := make(map[int]bool, len(corr.EdgeToV2))
	for _, v := range corr.EdgeToV2 {
		seen[v] = true
	}
	w := make([]int, 0, len(rip)+1)
	for _, v := range f.v2 {
		if comp.Has(v) && !seen[v] {
			w = append(w, v) // isolated V2 node: eliminate first
		}
	}
	for i := len(rip) - 1; i >= 0; i-- {
		w = append(w, corr.EdgeToV2[rip[i]])
	}
	return w, true
}

// Thaw reconstructs a mutable bipartite Graph equal to the snapshot.
func (f *Frozen) Thaw() *Graph {
	return &Graph{g: f.g.Thaw(), side: append([]graph.Side(nil), f.side...)}
}

// HypergraphV1 builds H¹G (Definition 2) straight off the CSR arrays:
// nodes correspond to V1, and every V2 node with at least one neighbour
// contributes an edge holding its V1-neighbourhood.
func (f *Frozen) HypergraphV1() Correspondence {
	return f.hypergraphSide(graph.Side1, nil)
}

// HypergraphV2 builds H²G symmetrically: nodes correspond to V2, edges to
// V1 neighbourhoods.
func (f *Frozen) HypergraphV2() Correspondence {
	return f.hypergraphSide(graph.Side2, nil)
}

// HypergraphV1AliveBits is HypergraphV1 restricted to the alive nodes of
// a packed graph.Bits mask: only alive V1 nodes become hypergraph nodes,
// only alive V2 nodes with at least one alive neighbour contribute edges.
// alive == nil means all nodes. For a connected-component mask this equals
// Induced(component).HypergraphV1() up to the id mapping, without building
// the induced copy.
func (f *Frozen) HypergraphV1AliveBits(alive graph.Bits) Correspondence {
	if alive == nil {
		return f.hypergraphSide(graph.Side1, nil)
	}
	return f.hypergraphSide(graph.Side1, alive.Has)
}

// hypergraphSide builds the Definition 2 hypergraph whose nodes are the
// (alive) nodes of side s and whose edges are the (alive) neighbourhoods of
// the other side's nodes (alive == nil: every node). EdgeToV2 then holds
// other-side node ids.
func (f *Frozen) hypergraphSide(s graph.Side, alive func(int) bool) Correspondence {
	nodes, edges := f.v1, f.v2
	if s == graph.Side2 {
		nodes, edges = f.v2, f.v1
	}
	h := hypergraph.New()
	v1ToNode := map[int]int{}
	var nodeToV1 []int
	for _, v := range nodes {
		if alive != nil && !alive(v) {
			continue
		}
		v1ToNode[v] = h.AddNode(f.g.Label(v))
		nodeToV1 = append(nodeToV1, v)
	}
	var edgeToV2 []int
	members := make([]int, 0, 16)
	for _, w := range edges {
		if alive != nil && !alive(w) {
			continue
		}
		members = members[:0]
		for _, v := range f.g.Neighbors(w) {
			if alive != nil && !alive(int(v)) {
				continue
			}
			members = append(members, v1ToNode[int(v)])
		}
		if len(members) == 0 {
			continue
		}
		h.AddEdge(f.g.Label(w), members...)
		edgeToV2 = append(edgeToV2, w)
	}
	return Correspondence{H: h, EdgeToV2: edgeToV2, NodeToV1: nodeToV1, V1ToNode: v1ToNode}
}
