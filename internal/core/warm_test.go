package core_test

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/snapshot"
)

// warmQueries is the replay set for the warm round-trip tests: a mix that
// lands on different dispatch arms of the Figure 3(c) library scheme.
func warmQueries() [][]int {
	return [][]int{{0, 2}, {1, 5}, {0, 1, 2}, {3, 4, 5}}
}

// TestWarmSnapshotRoundTrip: SaveWarmSnapshot → Decode → OpenSnapshot
// yields a Service whose first queries are cache hits answering
// bit-for-bit what the original Service computed — no solver runs on the
// replay — with the restore visible as WarmFills.
func TestWarmSnapshotRoundTrip(t *testing.T) {
	ctx := context.Background()
	svc := core.NewService(core.New(fixtures.Fig3c()))
	queries := warmQueries()
	want := make([]core.Connection, len(queries))
	for i, q := range queries {
		c, err := svc.Connect(ctx, q)
		if err != nil {
			t.Fatalf("connect %v: %v", q, err)
		}
		want[i] = c
	}

	var buf bytes.Buffer
	if err := svc.SaveWarmSnapshot(&buf); err != nil {
		t.Fatalf("SaveWarmSnapshot: %v", err)
	}
	snap, err := snapshot.Decode(buf.Bytes())
	if err != nil {
		t.Fatalf("warm snapshot does not decode: %v", err)
	}
	if len(snap.Warmup) != len(queries) {
		t.Fatalf("snapshot carries %d warm entries, want %d", len(snap.Warmup), len(queries))
	}

	warm := core.OpenSnapshot(snap)
	st := warm.Stats()
	if st.WarmFills != uint64(len(queries)) || st.Entries != len(queries) || st.Misses != 0 {
		t.Fatalf("restored stats %+v, want %d warm fills resident and no misses", st, len(queries))
	}
	if st.CostAddedNanos == 0 {
		t.Fatalf("restored entries carry no recompute cost: %+v", st)
	}
	for i, q := range queries {
		got, err := warm.Connect(ctx, q)
		if err != nil {
			t.Fatalf("warm connect %v: %v", q, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("restored answer for %v diverges:\n cold: %+v\n warm: %+v", q, want[i], got)
		}
	}
	st = warm.Stats()
	if st.Hits != uint64(len(queries)) || st.Misses != 0 {
		t.Fatalf("replay on restored cache: %+v, want %d hits / 0 misses", st, len(queries))
	}
	assertStatsReconcile(t, st, uint64(len(queries)))
}

// TestSaveWarmSnapshotUnderConcurrentMisses saves warm snapshots while
// clients keep missing on a cache far smaller than their query set, so
// answers are evicted and re-inserted while each save walks the cache.
// Every snapshot must decode: the decoder rejects a warmup section that
// lists one query twice as corrupt.
func TestSaveWarmSnapshotUnderConcurrentMisses(t *testing.T) {
	ctx := context.Background()
	svc := core.NewService(core.New(fixtures.Fig3c()), core.WithCacheSize(4), core.WithCacheShards(1))
	var queries [][]int
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			queries = append(queries, []int{i, j})
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(i*7)%len(queries)]
				if _, err := svc.Connect(ctx, q); err != nil {
					t.Errorf("connect %v: %v", q, err)
					return
				}
			}
		}(w)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for save := 0; save < 5000; save++ {
		var buf bytes.Buffer
		if err := svc.SaveWarmSnapshot(&buf); err != nil {
			t.Fatalf("save %d: %v", save, err)
		}
		if _, err := snapshot.Decode(buf.Bytes()); err != nil {
			t.Fatalf("save %d does not decode: %v", save, err)
		}
	}
	if st := svc.Stats(); st.Evictions == 0 {
		t.Fatalf("no evictions during the saves: %+v", st)
	}
}

// TestWarmSnapshotRespectsReceiverOptions: restore revalidates each entry
// against the receiving Service's own budgets — an entry over the new
// WithMaxTerminals bound is skipped, never installed, and everything else
// still lands.
func TestWarmSnapshotRespectsReceiverOptions(t *testing.T) {
	ctx := context.Background()
	svc := core.NewService(core.New(fixtures.Fig3c()))
	for _, q := range warmQueries() {
		if _, err := svc.Connect(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := svc.SaveWarmSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// Two of the four warm queries use 3 terminals.
	warm := core.OpenSnapshot(snap, core.WithMaxTerminals(2))
	if st := warm.Stats(); st.WarmFills != 2 || st.Entries != 2 {
		t.Fatalf("restore under WithMaxTerminals(2): %+v, want exactly the 2-terminal entries", st)
	}
}

// TestRegistrySwapCarriesWarmCache: swapping in a new epoch of the *same*
// scheme carries the settled cache across — the first query on the new
// epoch hits, bit-for-bit the fresh solve — while swapping in a different
// scheme carries nothing.
func TestRegistrySwapCarriesWarmCache(t *testing.T) {
	ctx := context.Background()
	reg := core.NewRegistry()
	reg.Set("library", fixtures.Fig3c())
	queries := warmQueries()
	want := make([]core.Connection, len(queries))
	for i, q := range queries {
		c, err := reg.Connect(ctx, "library", q)
		if err != nil {
			t.Fatalf("connect %v: %v", q, err)
		}
		want[i] = c
	}

	// Same scheme, recompiled: identical fingerprint, cache carries.
	next := core.NewService(core.New(fixtures.Fig3c()))
	if epoch := reg.Swap("library", next, core.SourceCompiled); epoch != 2 {
		t.Fatalf("swap epoch = %d, want 2", epoch)
	}
	st := next.Stats()
	if st.WarmFills != uint64(len(queries)) || st.Entries != len(queries) {
		t.Fatalf("post-swap stats %+v, want %d carried entries", st, len(queries))
	}
	fresh := core.New(fixtures.Fig3c())
	for i, q := range queries {
		got, err := reg.Connect(ctx, "library", q)
		if err != nil {
			t.Fatalf("post-swap connect %v: %v", q, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("carried answer for %v diverges from pre-swap answer", q)
		}
		direct, err := fresh.Connect(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, direct) {
			t.Fatalf("carried answer for %v diverges from a fresh solve:\ncarried: %+v\n fresh:  %+v", q, got, direct)
		}
	}
	st = next.Stats()
	if st.Hits != uint64(len(queries)) || st.Misses != 0 {
		t.Fatalf("replay after same-scheme swap: %+v, want all hits", st)
	}
	assertStatsReconcile(t, st, uint64(len(queries)))

	// Different scheme: fingerprints diverge, nothing carries.
	other := core.NewService(core.New(fixtures.Fig3b()))
	reg.Swap("library", other, core.SourceCompiled)
	if st := other.Stats(); st.WarmFills != 0 || st.Entries != 0 {
		t.Fatalf("cross-scheme swap carried entries: %+v", st)
	}
}
