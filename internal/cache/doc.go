// Package cache implements the sharded, read-mostly map behind
// core.Service's answer cache.
//
// A Cache is a fixed set of shards selected by an FNV-1a hash of the
// key. Each shard owns a mutex and an open-addressing index: a
// power-of-two array of atomic entry pointers, probed linearly from the
// slot the top bits of the hash select. The hit path loads the index
// through an atomic pointer, probes it, and refreshes recency with a
// plain atomic store: it never acquires the shard mutex, so a warm
// high-QPS serving path scales with cores instead of queueing on locks
// (LockAcquisitions instruments exactly this — the concurrency tests
// assert it stays flat across hit-only workloads). Writers — misses,
// warm fills, removals, cost fills — serialize on the shard mutex and
// update the index in place: an insert stores its entry into one free
// or tombstoned slot, and an eviction or removal stores a tombstone
// sentinel into its entry's slot. A slot never returns to empty, so a
// probe chain a reader is walking is never cut short. Beside the index,
// each shard keeps a dense slice of its resident entries that only
// writers touch, which the eviction scan walks. When entries plus
// tombstones would pass ¾ of the slots, the writer builds a fresh index
// at about twice the resident count and publishes it through the atomic
// pointer, so the index grows with occupancy, never with capacity, and a
// miss costs amortized O(1) index work plus the eviction scan.
// Lookups of the *same* absent key still meet on one shard lock, which
// is what gives the Service its in-flight deduplication.
//
// # Recency and cost-aware eviction
//
// Strict LRU list maintenance is incompatible with lock-free hits, so
// recency is sampled: each shard's tick advances on every insert and
// once per 16 hits, and a hit stamps its entry with tick+1 — above
// every entry inserted in the current window. (The tick is per shard,
// not cache-global: eviction only compares entries within one shard,
// and a global clock would be a cache line contended by every hit on
// every shard.) Eviction (on an insert
// that pushes a shard over capacity) drops the entry minimizing
//
//	stamp + 8·log₂(recompute cost in ~0.5ms units)
//
// with ties broken oldest-insert-first. The cost term is the point: the
// Service records each entry's solver wall time at fill, so at equal
// recency a multi-millisecond ExactFrozenShared answer outlives a microsecond
// tree-scheme lookup by ~8 ticks per cost doubling — enough to prefer
// re-deriving cheap answers, bounded so a cold expensive entry cannot
// pin its slot forever. Costs under the ~0.5ms floor carry no bonus:
// among cheap entries (every answer on a small scheme) the policy is
// pure recency, reproducing classic LRU order exactly with one shard
// (pinned by test), because every insert opens a new tick window and
// hits stamp strictly above it.
//
// # Counters
//
// The shards own every counter the cache keeps, and ShardStats is the
// one way to read them: a cache-wide figure is the sum over the shards.
// Each shard counts its hits, misses, warm fills (Add, used by snapshot
// warmup restore and Registry epoch-swap carry-over), capacity
// evictions and conditional removals, so per shard
//
//	entries == misses + warmFills − evictions − removals
//
// is an exact identity, asserted by the reconciliation tests. The cost
// ledger is kept the same way: CostAdded − CostEvicted − CostRemoved
// equals the cost resident in the shard, and CostSaved accumulates the
// recompute cost of every hit — the solver time the cache has turned
// into index probes.
//
// # Capacity rounding
//
// The requested capacity is divided across shards with ceiling division
// and a floor of one entry per shard: New(capacity, shards) gives every
// shard max(1, ⌈capacity/shards⌉) entries. The effective total — reported
// by Capacity() — is therefore rounded *up* to a multiple of the shard
// count, never down: a cache asked for 10 entries over 8 shards holds up
// to 16, and a cache asked for 1 entry over 64 shards holds up to 64.
// A shard is never silently given zero capacity, which would turn every
// lookup that lands on it into a miss-insert-evict cycle that can never
// hit.
//
// Eviction is per shard, not global: capacity pressure on one shard
// evicts that shard's lowest-scored entry even if a colder entry lives
// elsewhere. For the uniformly-hashed keys the Service feeds it
// (canonical terminal-set fingerprints) the difference from a global
// policy is noise; the win is that no lookup ever touches another
// shard's lock — or, on the hit path, any lock at all.
package cache
