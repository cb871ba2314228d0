package steiner_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/steiner"
)

// TestFrozenSolversCancelled runs every frozen solver under an already-
// cancelled context and asserts the ctx error surfaces (errors.Is-
// testable) instead of a full solve.
func TestFrozenSolversCancelled(t *testing.T) {
	b := gen.GridBipartite(6, 6)
	fb := b.Freeze()
	fg := fb.G()
	terms := []int{0, fg.N() - 1, fg.N() / 2}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := steiner.Algorithm2FrozenShared(cancelled, fg, terms, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("Algorithm2FrozenShared: %v", err)
	}
	if _, err := steiner.EliminateOrderedFrozen(cancelled, fg, terms, []int{0, 1, 2}); !errors.Is(err, context.Canceled) {
		t.Errorf("EliminateOrderedFrozen: %v", err)
	}
	if _, err := steiner.EliminateOrderedStrict(cancelled, fg, terms, []int{0, 1, 2}); !errors.Is(err, context.Canceled) {
		t.Errorf("EliminateOrderedStrict: %v", err)
	}
	if _, err := steiner.ExactFrozenShared(cancelled, fg, terms, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("ExactFrozenShared: %v", err)
	}
	if _, err := steiner.ApproximateFrozenShared(cancelled, fg, terms, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("ApproximateFrozenShared: %v", err)
	}
	if _, err := steiner.RankedCovers(cancelled, b.G(), terms, b.N(), 5); !errors.Is(err, context.Canceled) {
		t.Errorf("RankedCovers: %v", err)
	}
	// Algorithm1FrozenShared rejects the grid before its elimination loop
	// (not alpha-acyclic), so exercise it on a scheme it accepts.
	ab := gen.GridBipartite(1, 9) // a path: trivially alpha-acyclic
	afb := ab.Freeze()
	if _, err := steiner.Algorithm1FrozenShared(cancelled, afb, []int{0, ab.N() - 1}, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("Algorithm1FrozenShared: %v", err)
	}
	if _, err := steiner.Algorithm1WithOrder(cancelled, afb, []int{0, ab.N() - 1}, afb.V2()); !errors.Is(err, context.Canceled) {
		t.Errorf("Algorithm1WithOrder: %v", err)
	}
}

// TestExactFrozenDeadlineInsideDP arms a deadline that can only fire once
// the Dreyfus–Wagner subset loop is underway and asserts it is honored
// from inside the loop.
func TestExactFrozenDeadlineInsideDP(t *testing.T) {
	fg := gen.GridBipartite(8, 8).Freeze().G()
	terms := make([]int, 0, 16)
	for v := 0; v < fg.N() && len(terms) < 16; v += 2 {
		terms = append(terms, v)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := steiner.ExactFrozenShared(ctx, fg, terms, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestSentinelErrors pins the new typed sentinels of the solver layer.
func TestSentinelErrors(t *testing.T) {
	fg := gen.GridBipartite(5, 5).Freeze().G()
	ctx := context.Background()
	if _, err := steiner.ExactFrozenShared(ctx, fg, nil, nil); !errors.Is(err, steiner.ErrEmptyTerminals) {
		t.Errorf("empty terminals: %v", err)
	}
	tooMany := make([]int, steiner.ExactTerminalLimit+1)
	for i := range tooMany {
		tooMany[i] = i // distinct ids, all within the 25-node grid
	}
	if _, err := steiner.ExactFrozenShared(ctx, fg, tooMany, nil); !errors.Is(err, steiner.ErrTooManyTerminals) {
		t.Errorf("too many terminals: %v", err)
	}
}
