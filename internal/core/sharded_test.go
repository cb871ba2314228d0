package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/fixtures"
	"repro/internal/gen"
)

// shardedRandomScheme rotates through the PR-3 scheme families (the same
// mix as httpd's randomized equivalence harness) so every dispatch arm —
// Algorithm 2, Algorithm 1, exact, heuristic — and the disconnected case
// come up across the sweep.
func shardedRandomScheme(r *rand.Rand, i int) *bipartite.Graph {
	switch i % 4 {
	case 0:
		// Cyclic, connected: exact/heuristic territory.
		return gen.RandomConnectedBipartite(r, 3+r.Intn(5), 2+r.Intn(4), 0.2+0.4*r.Float64())
	case 1:
		// α-acyclic H¹ incidence graphs: Algorithm 1 territory; may be
		// disconnected, exercising error parity.
		return bipartite.FromHypergraph(gen.AlphaAcyclic(r, 3+r.Intn(4), 2, 2)).B
	case 2:
		// Trees are (6,2)-chordal: Algorithm 2 with full guarantees.
		return gen.RandomTree(r, 4+r.Intn(9))
	default:
		// Complete bipartite: (6,2)-chordal with dense adjacency.
		return gen.CompleteBipartite(2+r.Intn(3), 2+r.Intn(3))
	}
}

// shardedRandomTerminals picks 1–4 distinct node ids (either side).
func shardedRandomTerminals(r *rand.Rand, n int) []int {
	k := 1 + r.Intn(4)
	if k > n {
		k = n
	}
	return r.Perm(n)[:k]
}

// TestShardedCacheEquivalence is the sharding property harness: over the
// random scheme families of the PR-3 suite, a default-sharded Service
// must answer every query — including repeats (cache hits), forced
// methods and interpretation requests — bit-for-bit identically to a
// WithCacheShards(1) Service (one shard over the whole cache) and to an
// uncached Connector, with identical aggregate stats totals. Sharding may
// only change lock granularity, never an answer or a counter.
func TestShardedCacheEquivalence(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(1985))
	const schemeCount = 120
	for i := 0; i < schemeCount; i++ {
		b := shardedRandomScheme(r, i)
		if b.N() == 0 {
			continue
		}
		conn := core.New(b)
		// Capacity well above the query count: with no evictions the two
		// caches must agree on every counter, not just on answers.
		svc1 := core.NewService(conn, core.WithCacheSize(4096), core.WithCacheShards(1))
		svcN := core.NewService(conn, core.WithCacheSize(4096)) // default shards
		var queries [][]int
		for q := 0; q < 5; q++ {
			queries = append(queries, shardedRandomTerminals(r, b.N()))
		}
		queries = append(queries, queries[0], queries[len(queries)-1]) // repeats: hits
		for qi, terms := range queries {
			var opts []core.QueryOption
			switch qi % 4 {
			case 1:
				opts = append(opts, core.WithMethod(core.MethodHeuristic))
			case 2:
				opts = append(opts, core.WithInterpretations(2, 3))
			case 3:
				opts = append(opts, core.WithCacheBypass())
			}
			want, wantErr := conn.Connect(ctx, terms, opts...)
			got1, err1 := svc1.Connect(ctx, terms, opts...)
			gotN, errN := svcN.Connect(ctx, terms, opts...)
			if (wantErr == nil) != (err1 == nil) || (wantErr == nil) != (errN == nil) {
				t.Fatalf("scheme %d query %d: error divergence: connector=%v shards1=%v sharded=%v",
					i, qi, wantErr, err1, errN)
			}
			if wantErr != nil {
				if err1.Error() != wantErr.Error() || errN.Error() != wantErr.Error() {
					t.Fatalf("scheme %d query %d: error text divergence: %q / %q / %q",
						i, qi, wantErr, err1, errN)
				}
				continue
			}
			if !reflect.DeepEqual(want, got1) || !reflect.DeepEqual(want, gotN) {
				t.Fatalf("scheme %d query %d terms %v: answers diverge across shard counts:\nconnector: %+v\nshards=1:  %+v\nsharded:   %+v",
					i, qi, terms, want, got1, gotN)
			}
		}
		st1, stN := svc1.Stats(), svcN.Stats()
		if st1.Hits != stN.Hits || st1.Misses != stN.Misses ||
			st1.Evictions != stN.Evictions || st1.Bypasses != stN.Bypasses ||
			st1.Removals != stN.Removals || st1.Entries != stN.Entries {
			t.Fatalf("scheme %d: aggregate stats diverge across shard counts:\nshards=1: %+v\nsharded:  %+v", i, st1, stN)
		}
	}
}

// TestShardedCacheHammerRace drives Services at several shard counts from
// many goroutines with overlapping keys, bypasses and a cache small
// enough to evict under load; under -race it asserts the per-shard
// locking is sound, and every concurrent answer is checked bit-for-bit
// against the sequential one.
func TestShardedCacheHammerRace(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(73))
	b := bipartite.FromHypergraph(gen.GammaAcyclic(r, 30, 3, 3)).B
	conn := core.New(b)

	type query struct {
		terms []int
		conn  core.Connection
		err   error
	}
	var queries []query
	for k := 0; k < 24; k++ {
		terms := distinctTerms(r, b.N(), 3)
		c, err := conn.Connect(ctx, terms)
		queries = append(queries, query{terms: terms, conn: c, err: err})
	}

	for _, shards := range []int{1, 2, 0, 64} { // 0 = default
		name := fmt.Sprintf("shards=%d", shards)
		t.Run(name, func(t *testing.T) {
			svc := core.NewService(conn, core.WithCacheSize(16), core.WithCacheShards(shards))
			const goroutines, perG = 16, 50
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for w := 0; w < goroutines; w++ {
				wg.Add(1)
				go func(seed int) {
					defer wg.Done()
					rr := rand.New(rand.NewSource(int64(seed)))
					for i := 0; i < perG; i++ {
						q := queries[rr.Intn(len(queries))]
						var opts []core.QueryOption
						if i%10 == 9 {
							opts = append(opts, core.WithCacheBypass())
						}
						got, err := svc.Connect(ctx, q.terms, opts...)
						if (err == nil) != (q.err == nil) {
							errs <- fmt.Errorf("error mismatch for %v: %v vs %v", q.terms, err, q.err)
							return
						}
						if err == nil && !reflect.DeepEqual(got, q.conn) {
							errs <- fmt.Errorf("concurrent answer for %v differs at %s", q.terms, name)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			assertStatsReconcile(t, svc.Stats(), goroutines*perG)
		})
	}
}

// assertStatsReconcile checks the counter algebra every CacheStats must
// satisfy after a run of total requests: each request counts exactly once
// (hit, miss or bypass), every miss or warm fill inserted exactly one
// entry, every entry left by capacity eviction or deliberate removal
// (cancellation and panic outcomes), the per-shard occupancy is the entry
// count within capacity, and the recompute-cost ledger balances — resident
// cost is exactly what was added minus what eviction and removal took out.
func assertStatsReconcile(t *testing.T, st core.CacheStats, total uint64) {
	t.Helper()
	if st.Hits+st.Misses+st.Bypasses != total {
		t.Errorf("lookup accounting off: hits %d + misses %d + bypasses %d != %d requests (%+v)",
			st.Hits, st.Misses, st.Bypasses, total, st)
	}
	if uint64(st.Entries) != st.Misses+st.WarmFills-st.Evictions-st.Removals {
		t.Errorf("residency accounting off: entries %d != misses %d + warm fills %d - evictions %d - removals %d (%+v)",
			st.Entries, st.Misses, st.WarmFills, st.Evictions, st.Removals, st)
	}
	if st.CostResidentNanos != st.CostAddedNanos-st.CostEvictedNanos-st.CostRemovedNanos {
		t.Errorf("cost ledger off: resident %d != added %d - evicted %d - removed %d (%+v)",
			st.CostResidentNanos, st.CostAddedNanos, st.CostEvictedNanos, st.CostRemovedNanos, st)
	}
	if st.Entries > st.Capacity {
		t.Errorf("over capacity: %d > %d (%+v)", st.Entries, st.Capacity, st)
	}
	if len(st.ShardEntries) != st.Shards {
		t.Errorf("shard occupancy has %d slots for %d shards (%+v)", len(st.ShardEntries), st.Shards, st)
	}
	sum := 0
	for _, n := range st.ShardEntries {
		sum += n
	}
	if sum != st.Entries {
		t.Errorf("shard occupancy sums to %d, entries say %d (%+v)", sum, st.Entries, st)
	}
	if st.Shards < 1 || st.Shards&(st.Shards-1) != 0 {
		t.Errorf("shard count %d is not a power of two (%+v)", st.Shards, st)
	}
}

// TestCacheStatsAccuracyUnderConcurrency is the dedicated stats-accuracy
// hammer: a deliberately tiny sharded cache under concurrent hits, misses,
// evictions and bypasses, whose totals must still reconcile exactly with
// the number of requests issued.
func TestCacheStatsAccuracyUnderConcurrency(t *testing.T) {
	ctx := context.Background()
	b := fixtures.Fig3b()
	conn := core.New(b)
	svc := core.NewService(conn, core.WithCacheSize(2), core.WithCacheShards(4))
	// Every 2-subset of the 5 nodes is a valid query; 10 keys over an
	// effective capacity of 4 guarantees constant eviction churn.
	var pool [][]int
	for x := 0; x < b.N(); x++ {
		for y := x + 1; y < b.N(); y++ {
			pool = append(pool, []int{x, y})
		}
	}
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(int64(seed)))
			for i := 0; i < perG; i++ {
				var opts []core.QueryOption
				if i%7 == 6 {
					opts = append(opts, core.WithCacheBypass())
				}
				if _, err := svc.Connect(ctx, pool[rr.Intn(len(pool))], opts...); err != nil {
					t.Errorf("connect: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := svc.Stats()
	assertStatsReconcile(t, st, goroutines*perG)
	if st.Evictions == 0 {
		t.Errorf("tiny cache under churn never evicted: %+v", st)
	}
	if st.Bypasses == 0 || st.Hits == 0 || st.Misses == 0 {
		t.Errorf("hammer failed to exercise every counter: %+v", st)
	}
}

// TestCacheMinimumPerShardCapacity pins the rounding rule at the Service
// level: a cache smaller than its shard count must round *up* to one
// entry per shard, never silently down to zero — a zero-capacity shard
// could never hit.
func TestCacheMinimumPerShardCapacity(t *testing.T) {
	ctx := context.Background()
	b := fixtures.Fig3b()
	svc := core.NewService(core.New(b), core.WithCacheSize(1), core.WithCacheShards(64))
	st := svc.Stats()
	if st.Shards != 64 || st.Capacity != 64 {
		t.Fatalf("WithCacheSize(1) over 64 shards: %+v, want capacity 64 (one entry per shard)", st)
	}
	q := b.G().IDs("A", "C")
	if _, err := svc.Connect(ctx, q); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Connect(ctx, q); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("repeat on a min-capacity shard must hit: %+v", st)
	}
}

// TestWithCacheShardsRounding pins the option's normalization: requests
// round up to a power of two, non-positive selects the documented
// GOMAXPROCS-derived default.
func TestWithCacheShardsRounding(t *testing.T) {
	b := fixtures.Fig3b()
	conn := core.New(b)
	for _, tc := range []struct{ ask, want int }{
		{1, 1}, {2, 2}, {3, 4}, {8, 8}, {33, 64},
	} {
		svc := core.NewService(conn, core.WithCacheShards(tc.ask))
		if got := svc.Stats().Shards; got != tc.want {
			t.Errorf("WithCacheShards(%d): shards = %d, want %d", tc.ask, got, tc.want)
		}
	}
	if got := core.NewService(conn).Stats().Shards; got != cache.DefaultShards() {
		t.Errorf("default shards = %d, want %d", got, cache.DefaultShards())
	}
}
