package cache

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/intset"
)

func TestSingleShardIsExactLRU(t *testing.T) {
	c := New[int](2, 1)
	if c.Shards() != 1 || c.Capacity() != 2 || c.PerShard() != 2 {
		t.Fatalf("geometry: shards=%d capacity=%d perShard=%d", c.Shards(), c.Capacity(), c.PerShard())
	}
	add := func(k string, v int) {
		c.GetOrAdd(k, func() int { return v })
	}
	add("a", 1)
	add("b", 2)
	if _, hit := c.GetOrAdd("a", func() int { return -1 }); !hit {
		t.Fatal("a should be resident")
	}
	add("c", 3) // capacity 2: evicts b, the least recently used, not a
	if _, hit := c.GetOrAdd("b", func() int { return -2 }); hit {
		t.Fatal("b should have been the LRU victim")
	}
	// The b probe above re-inserted b, evicting a (LRU after the c insert).
	if _, hit := c.GetOrAdd("c", func() int { return -3 }); !hit {
		t.Fatal("c should have survived")
	}
	if got := c.Evictions(); got != 2 {
		t.Fatalf("evictions = %d, want 2 (b then a)", got)
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("len = %d, want 2", got)
	}
}

func TestGetOrAddDedupAndIdentity(t *testing.T) {
	c := New[*int](8, 4)
	calls := 0
	first, hit := c.GetOrAdd("k", func() *int { calls++; return new(int) })
	if hit || calls != 1 {
		t.Fatalf("first lookup: hit=%v calls=%d", hit, calls)
	}
	again, hit := c.GetOrAdd("k", func() *int { calls++; return new(int) })
	if !hit || calls != 1 || again != first {
		t.Fatalf("second lookup must return the first value without calling newf")
	}
}

func TestRemoveIsConditional(t *testing.T) {
	c := New[int](4, 1)
	c.GetOrAdd("k", func() int { return 1 })
	if c.Remove("k", 2) {
		t.Fatal("Remove with a stale value must be a no-op")
	}
	if _, hit := c.GetOrAdd("k", func() int { return -1 }); !hit {
		t.Fatal("entry should have survived the stale Remove")
	}
	if !c.Remove("k", 1) {
		t.Fatal("Remove with the current value must drop the entry")
	}
	if _, hit := c.GetOrAdd("k", func() int { return 3 }); hit {
		t.Fatal("entry should be gone")
	}
	if c.Evictions() != 0 {
		t.Fatal("Remove must not count as a capacity eviction")
	}
}

// TestCapacityRounding pins the minimum-1-entry-per-shard rule: capacity
// is split by ceiling division and never rounds a shard down to zero, so
// the effective capacity is ≥ the request and every shard can hold at
// least one entry.
func TestCapacityRounding(t *testing.T) {
	for _, tc := range []struct {
		capacity, shards         int
		wantShards, wantPerShard int
	}{
		{1024, 1, 1, 1024},
		{1024, 64, 64, 16},
		{100, 64, 64, 2}, // ceil(100/64) = 2: rounds up, not down
		{1, 8, 8, 1},     // the floor: never 0 per shard
		{1, 64, 64, 1},   // effective capacity inflates to 64
		{0, 4, 4, 1},     // nonsense capacity clamps to 1
		{10, 3, 4, 3},    // shards round up to a power of two
		{10, 0, 0, 0},    // default shard count (checked below)
		{7, 5, 8, 1},     // ceil(7/8) = 1
	} {
		c := New[int](tc.capacity, tc.shards)
		if tc.shards <= 0 {
			if c.Shards() != DefaultShards() {
				t.Errorf("New(%d,%d): shards = %d, want default %d", tc.capacity, tc.shards, c.Shards(), DefaultShards())
			}
			continue
		}
		if c.Shards() != tc.wantShards || c.PerShard() != tc.wantPerShard {
			t.Errorf("New(%d,%d): shards=%d perShard=%d, want %d/%d",
				tc.capacity, tc.shards, c.Shards(), c.PerShard(), tc.wantShards, tc.wantPerShard)
		}
		if tc.capacity >= 1 && c.Capacity() < tc.capacity {
			t.Errorf("New(%d,%d): effective capacity %d silently below request", tc.capacity, tc.shards, c.Capacity())
		}
		// Every shard must accept at least one entry.
		for i := 0; i < c.Shards()*4; i++ {
			c.GetOrAdd(fmt.Sprintf("probe-%d", i), func() int { return i })
		}
		if c.Len() == 0 {
			t.Errorf("New(%d,%d): cache cannot hold anything", tc.capacity, tc.shards)
		}
	}
}

func TestCeilPow2(t *testing.T) {
	for _, tc := range [][2]int{{0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16}, {64, 64}, {65, 128}} {
		if got := ceilPow2(tc[0]); got != tc[1] {
			t.Errorf("ceilPow2(%d) = %d, want %d", tc[0], got, tc[1])
		}
	}
	if d := DefaultShards(); d < 1 || d > MaxDefaultShards || d&(d-1) != 0 {
		t.Errorf("DefaultShards() = %d: want a power of two in [1,%d]", d, MaxDefaultShards)
	}
}

// TestShardDistribution feeds the cache keys shaped like the Service's
// real ones (canonical intset fingerprints of random terminal sets) and
// requires no shard to hold more than 4× the mean occupancy — a skew
// bound, not a perfection bound, that catches a broken hash or mask.
func TestShardDistribution(t *testing.T) {
	const (
		shards = 16
		keys   = 8192
	)
	c := New[int](shards*1024, shards) // roomy: no evictions distort occupancy
	r := rand.New(rand.NewSource(1985))
	seen := make(map[string]bool, keys)
	for len(seen) < keys {
		terms := make([]int, 1+r.Intn(4))
		for i := range terms {
			terms[i] = r.Intn(1 << 20)
		}
		key := intset.FromSlice(terms).Key()
		if seen[key] {
			continue
		}
		seen[key] = true
		c.GetOrAdd(key, func() int { return 0 })
	}
	occ := c.Occupancy()
	if len(occ) != shards {
		t.Fatalf("occupancy has %d shards, want %d", len(occ), shards)
	}
	total, max := 0, 0
	for _, n := range occ {
		total += n
		if n > max {
			max = n
		}
	}
	if total != keys {
		t.Fatalf("occupancy sums to %d, want %d", total, keys)
	}
	mean := float64(total) / float64(shards)
	if float64(max) > 4*mean {
		t.Fatalf("shard skew: max occupancy %d > 4× mean %.1f (occupancy %v)", max, mean, occ)
	}
}

// TestConcurrentGetOrAdd hammers one hot key and many cold keys from
// every shard at once; under -race it checks the locking, and the hot-key
// dedup invariant (exactly one newf per absent key) is asserted directly.
func TestConcurrentGetOrAdd(t *testing.T) {
	c := New[*int](256, 8)
	const goroutines = 16
	var hotCalls int
	hot := func() *int { hotCalls++; return new(int) } // guarded by the shard lock
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.GetOrAdd("hot", hot)
				c.GetOrAdd(fmt.Sprintf("cold-%d-%d", g, i), func() *int { return new(int) })
			}
		}(g)
	}
	wg.Wait()
	if hotCalls != 1 {
		t.Fatalf("hot key computed %d times, want 1", hotCalls)
	}
	occ := c.Occupancy()
	sum := 0
	for _, n := range occ {
		sum += n
		if n > c.PerShard() {
			t.Fatalf("shard over capacity: %d > %d", n, c.PerShard())
		}
	}
	if sum > c.Capacity() {
		t.Fatalf("resident %d over effective capacity %d", sum, c.Capacity())
	}
}

// TestShardStatsSumToTotals drives mixed traffic — repeats for hits,
// capacity pressure for evictions, a conditional Remove — and asserts the
// per-shard counters are an exact decomposition of the cache-wide view:
// shard misses/evictions/entries sum to the totals and Removes stay out
// of the eviction count at both levels.
func TestShardStatsSumToTotals(t *testing.T) {
	c := New[int](8, 4)
	wantHits, wantMisses := uint64(0), uint64(0)
	for round := 0; round < 3; round++ {
		for i := 0; i < 32; i++ {
			_, hit := c.GetOrAdd(fmt.Sprintf("key-%d", i), func() int { return i })
			if hit {
				wantHits++
			} else {
				wantMisses++
			}
		}
	}
	// A successful conditional Remove must not count as an eviction.
	if v, hit := c.GetOrAdd("victim", func() int { return -1 }); hit {
		t.Fatal("victim unexpectedly present")
	} else if !c.Remove("victim", v) {
		t.Fatal("conditional Remove of fresh entry failed")
	}
	wantMisses++

	stats := c.ShardStats()
	if len(stats) != c.Shards() {
		t.Fatalf("ShardStats has %d slots for %d shards", len(stats), c.Shards())
	}
	var hits, misses, evictions uint64
	entries := 0
	for _, s := range stats {
		hits += s.Hits
		misses += s.Misses
		evictions += s.Evictions
		entries += s.Entries
	}
	if hits != wantHits || misses != wantMisses {
		t.Fatalf("shard sums: %d hits / %d misses, want %d / %d", hits, misses, wantHits, wantMisses)
	}
	if evictions != c.Evictions() {
		t.Fatalf("shard evictions sum to %d, Evictions() = %d", evictions, c.Evictions())
	}
	if evictions == 0 {
		t.Fatal("expected capacity pressure to evict (32 keys into capacity 8)")
	}
	if entries != c.Len() {
		t.Fatalf("shard entries sum to %d, Len() = %d", entries, c.Len())
	}
}

// TestMissOnFullShardAllocs pins the cost of a miss on a full cache: the
// GetOrAdd that inserts and evicts plus the SetCost after it allocate the
// new entry and the caller's value, and nothing per resident entry —
// copying a 512-entry shard's index on each miss would cost about 27 KB
// here. The index rebuilds, amortized over many misses, stay far under
// the byte bound.
func TestMissOnFullShardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const runs = 2000
	_, miss := fullCache(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, miss)
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) // AllocsPerRun adds a warm-up call
	if allocs > 2 || bytes >= 1024 {
		t.Fatalf("a miss on a full cache makes %.0f allocations and %.0f B, want ≤ 2 and < 1 KiB", allocs, bytes)
	}
	t.Logf("%.0f allocations, %.0f B per miss", allocs, bytes)
}
