package cache

import (
	"fmt"
	"testing"
)

// fullCache returns a cache of core.DefaultCacheSize's 1024 entries over
// 2 shards (the default on a 2-CPU host), filled to capacity from a ring
// of keys shaped like the Service's, and miss, which makes one miss on it
// the way the Service does: a GetOrAdd that inserts (and evicts), then
// the SetCost that records the solve time. No hit refreshes anything, so
// each shard evicts in insert order and holds only its most recent 512
// ring keys: cycling on through the ring, every key is absent when it
// comes round again.
func fullCache(tb testing.TB) (c *Cache[*box], miss func()) {
	c = New[*box](1024, 2)
	ring := make([]string, 4*c.Capacity())
	for i := range ring {
		ring[i] = fmt.Sprintf("m4#%d,%d", i, i+17)
	}
	next := 0
	for ; sumShardStats(c).Entries < c.Capacity(); next++ {
		if next == len(ring) {
			tb.Fatal("ring exhausted before the cache filled")
		}
		k := ring[next]
		c.GetOrAdd(k, func() *box { return &box{key: k} })
	}
	miss = func() {
		k := ring[next%len(ring)]
		next++
		v, hit := c.GetOrAdd(k, func() *box { return &box{key: k} })
		if hit {
			tb.Fatalf("%q hit on a full cache cycling a ring 4× its capacity", k)
		}
		c.SetCost(k, v, 600_000)
	}
	return c, miss
}

// BenchmarkCacheMissFull measures one miss on a full cache, with the
// SetCost that follows it.
func BenchmarkCacheMissFull(b *testing.B) {
	_, miss := fullCache(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		miss()
	}
}

// BenchmarkCacheHit measures a GetOrAdd hit on a full cache, cycling
// over every resident key.
func BenchmarkCacheHit(b *testing.B) {
	c, _ := fullCache(b)
	var keys []string
	c.Range(func(k string, _ *box, _ int64) bool {
		keys = append(keys, k)
		return true
	})
	miss := func() *box { b.Fatal("miss on a resident key"); return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.GetOrAdd(keys[i%len(keys)], miss)
	}
}
