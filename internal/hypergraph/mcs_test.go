package hypergraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGreedyEdgeOrderIsPermutation(t *testing.T) {
	h := coveredTriangleH()
	order := h.GreedyEdgeOrder()
	if len(order) != h.M() {
		t.Fatalf("order length %d", len(order))
	}
	seen := map[int]bool{}
	for _, e := range order {
		if seen[e] {
			t.Fatal("repeated edge")
		}
		seen[e] = true
	}
}

func TestQuickMCSAgreesWithGYO(t *testing.T) {
	// The Tarjan–Yannakakis-style test must agree with GYO on random
	// hypergraphs — this is the pillar Theorem 4 stands on.
	cfg := &quick.Config{MaxCount: 800}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomH(r, 2+r.Intn(6), 1+r.Intn(6))
		return (h.VerifyRunningIntersection(h.GreedyEdgeOrder()) == -1) == h.AlphaAcyclic()
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestQuickGreedyOrderSatisfiesRIPOnAcyclic(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h := randomH(r, 2+r.Intn(6), 1+r.Intn(5))
		if !h.AlphaAcyclic() {
			return true
		}
		return h.VerifyRunningIntersection(h.GreedyEdgeOrder()) == -1
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestGreedyOrderOnCyclicDetectsViolation(t *testing.T) {
	h := triangleH()
	if bad := h.VerifyRunningIntersection(h.GreedyEdgeOrder()); bad == -1 {
		t.Error("expected a RIP violation on the triangle")
	}
}

func TestGreedyOrderDisconnectedComponents(t *testing.T) {
	h := New()
	h.AddEdgeLabels("e1", "a", "b")
	h.AddEdgeLabels("e2", "x", "y")
	h.AddEdgeLabels("e3", "b", "c")
	order := h.GreedyEdgeOrder()
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	if bad := h.VerifyRunningIntersection(order); bad != -1 {
		t.Errorf("disconnected forest should pass, RIP violated at %d", bad)
	}
}
