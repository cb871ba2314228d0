package cache

import (
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// MaxDefaultShards caps DefaultShards: beyond 64 ways the lock is no
// longer the bottleneck and the per-shard capacity floor starts inflating
// small caches.
const MaxDefaultShards = 64

// DefaultShards is the shard count used when the caller does not choose
// one: GOMAXPROCS rounded up to a power of two, capped at
// MaxDefaultShards. One shard per runnable goroutine is enough to make
// lock collisions rare without fragmenting the capacity of small caches.
func DefaultShards() int {
	n := ceilPow2(runtime.GOMAXPROCS(0))
	if n > MaxDefaultShards {
		n = MaxDefaultShards
	}
	return n
}

// ceilPow2 rounds n up to the nearest power of two (minimum 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Cache is a sharded string-keyed map with a lock-free hit path: each
// shard keeps an open-addressing index of atomic slots that readers probe
// without taking the shard mutex, while writers update it in place under
// the mutex. Recency is tracked by sampled atomic stamps against a
// per-shard tick rather than a strict LRU list, and eviction weighs
// recency against the recorded cost of recomputing the entry. The zero
// value is not usable; construct with New. All methods are safe for
// concurrent use.
type Cache[V comparable] struct {
	mask     uint64
	perShard int
	// tomb is the sentinel stored in the slot of an evicted or removed
	// entry: probes pass over it, so the entries behind it in a probe
	// chain stay reachable, and inserts reuse the slot.
	tomb *entry[V]
	// evictions counts entries dropped by capacity pressure across all
	// shards; atomic so Evictions never takes a shard lock.
	evictions atomic.Uint64
	// lockAcquires counts every shard-mutex acquisition; tests subtract
	// snapshots around a hit-only workload to prove the read path is
	// lock-free.
	lockAcquires atomic.Uint64
	shards       []shard[V]
}

// sampleEvery is the hit-path recency sampling period: every Nth hit on a
// shard advances the shard's tick. Hits inside one window share a stamp
// and tie-break on insertion order, which is as much ordering as eviction
// needs.
const sampleEvery = 16

// minSlots is the smallest index a shard builds once it holds an entry,
// so tiny shards do not rebuild on nearly every insert.
const minSlots = 8

// shard is one slice of the key space. idx is the only structure readers
// touch; mu serializes writers (insert, evict, remove, cost fills), which
// update idx in place and own live and used. Counters are atomics so the
// hit path and the stats methods never need the lock either; the
// miss-path counters are only written under mu but are read lock-free by
// ShardStats. The trailing pad keeps neighbouring shards' hot fields off
// one cache line.
type shard[V comparable] struct {
	idx atomic.Pointer[index[V]]
	mu  sync.Mutex
	// live holds every resident entry, in no particular order: the
	// eviction scan walks it instead of the sparser index.
	live []*entry[V]
	// used counts idx's non-nil slots, entries plus tombstones; an insert
	// that would push it past ¾ of the slots rebuilds the index first.
	used int
	// entries is len(live), kept atomically for the lock-free stats.
	entries atomic.Int64
	// tick is the shard's recency clock. Every insert advances it (so an
	// insert always outranks everything older), and the hit path advances
	// it once per sampleEvery hits — enough resolution for eviction
	// ordering without a read-modify-write per hit. It is per shard, not
	// cache-global: eviction only ever compares entries within one shard,
	// and a global clock would make every hit on every shard load (and
	// periodically write) one contended cache line.
	tick        atomic.Int64
	hits        atomic.Uint64
	misses      atomic.Uint64
	evictions   atomic.Uint64
	warmFills   atomic.Uint64
	costAdded   atomic.Uint64
	costEvicted atomic.Uint64
	costRemoved atomic.Uint64
	costSaved   atomic.Uint64
	_           [64]byte
}

// index is a shard's hash table: linear probing over a power-of-two
// array of slots, starting at the slot the top bits of the key's hash
// select (the low bits select the shard). A slot only ever goes from nil
// to an entry, from an entry to the tombstone and from the tombstone to
// an entry, never back to nil, so no write can cut short a probe chain a
// reader is walking. A rebuild fills a fresh index and publishes it
// whole; the retired one is never written again.
type index[V comparable] struct {
	slots []atomic.Pointer[entry[V]]
	shift uint // 64 − log₂(len(slots))
}

// entry is one resident key/value pair. key, val and seq are immutable
// after insert; stamp and cost are atomics because the lock-free hit
// path refreshes recency (and reads cost) while writers scan for
// eviction victims.
type entry[V comparable] struct {
	key   string
	val   V
	seq   int64 // insertion tick: eviction tie-break, oldest first
	stamp atomic.Int64
	cost  atomic.Int64 // recompute cost in nanoseconds (0 = unrecorded)
}

// New returns a Cache holding at least capacity entries split over the
// given number of shards. shards is rounded up to a power of two;
// non-positive selects DefaultShards. capacity is clamped to a minimum of
// one entry and divided across shards by ceiling division with a floor of
// one entry per shard (see the package comment for the rounding rule), so
// the effective Capacity may exceed the request but never falls below it.
func New[V comparable](capacity, shards int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	if shards <= 0 {
		shards = DefaultShards()
	}
	shards = ceilPow2(shards)
	perShard := (capacity + shards - 1) / shards
	c := &Cache[V]{
		mask:     uint64(shards - 1),
		perShard: perShard,
		tomb:     new(entry[V]),
		shards:   make([]shard[V], shards),
	}
	// Every shard starts on one shared single-slot index that is never
	// written: the first insert into a shard finds it full and builds
	// the shard its own.
	empty := &index[V]{slots: make([]atomic.Pointer[entry[V]], 1), shift: 64}
	for i := range c.shards {
		c.shards[i].idx.Store(empty)
	}
	return c
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hash is the FNV-1a 64-bit hash of key: its low bits select the shard,
// its top bits the home slot in the shard's index.
func hash(key string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	return h
}

// ShardIndex returns the index of the shard key hashes to, so callers
// (trace span annotations, shard-level diagnostics) can attribute a key
// to the same shard the cache itself uses. It never allocates.
func (c *Cache[V]) ShardIndex(key string) int {
	return int(hash(key) & c.mask)
}

// locate returns key's shard and hash.
func (c *Cache[V]) locate(key string) (*shard[V], uint64) {
	h := hash(key)
	return &c.shards[h&c.mask], h
}

// find returns the entry filed under key (whose hash is h) in the
// shard's current index, or nil. It takes no lock.
func (c *Cache[V]) find(s *shard[V], key string, h uint64) *entry[V] {
	ix := s.idx.Load()
	mask := uint64(len(ix.slots) - 1)
	for i := h >> ix.shift; ; i = (i + 1) & mask {
		e := ix.slots[i].Load()
		if e == nil {
			return nil
		}
		if e != c.tomb && e.key == key {
			return e
		}
	}
}

// lock acquires a shard's mutex through the instrumentation counter.
// Every mutation path must come through here — the lock-free-hit test
// asserts LockAcquisitions stays flat across a hit-only workload, which
// is only meaningful if no Lock call bypasses the counter.
func (c *Cache[V]) lock(s *shard[V]) {
	c.lockAcquires.Add(1)
	s.mu.Lock()
}

// noteHit records a successful lock-free lookup: bump the shard hit
// counter, advance the shard tick on the sampling period, and refresh
// the entry's recency stamp to strictly above every already-resident
// entry's insert stamp in the current window. The stamp store is a plain
// atomic write (no read-modify-write) and is skipped when the stamp is
// already current, so concurrent hits on one hot entry mostly leave its
// cache line in shared state instead of ping-ponging it.
func (c *Cache[V]) noteHit(s *shard[V], e *entry[V]) {
	if s.hits.Add(1)%sampleEvery == 0 {
		s.tick.Add(1)
	}
	if t := s.tick.Load() + 1; e.stamp.Load() != t {
		e.stamp.Store(t)
	}
	if cost := e.cost.Load(); cost > 0 {
		s.costSaved.Add(uint64(cost))
	}
}

// GetOrAdd returns the value cached under key with hit=true, refreshing
// its recency — or, when key is absent, inserts the value produced by
// newf and returns it with hit=false, evicting the shard's lowest-scored
// entry if the insert pushes the shard over capacity. The hit path is
// lock-free: it probes the shard's index and never touches the mutex.
// The lookup-or-insert is atomic with respect to the key's shard: of any
// number of concurrent callers with the same absent key, exactly one
// runs newf and the rest observe its value as a hit. newf runs with the
// shard lock held and must not call back into the Cache.
func (c *Cache[V]) GetOrAdd(key string, newf func() V) (v V, hit bool) {
	s, h := c.locate(key)
	if e := c.find(s, key, h); e != nil {
		c.noteHit(s, e)
		return e.val, true
	}
	c.lock(s)
	// Re-check under the lock: a concurrent writer may have inserted key
	// between the lock-free probe and here.
	if e := c.find(s, key, h); e != nil {
		s.mu.Unlock()
		c.noteHit(s, e)
		return e.val, true
	}
	v = newf()
	s.misses.Add(1)
	c.insertLocked(s, key, h, v, 0)
	s.mu.Unlock()
	return v, false
}

// Get returns the value cached under key, if any, refreshing its recency
// like a GetOrAdd hit. Lock-free. Absent keys are not counted as misses
// (only insert attempts are), so Get does not disturb the entries ==
// misses + warmFills − evictions − removals reconciliation.
func (c *Cache[V]) Get(key string) (v V, ok bool) {
	s, h := c.locate(key)
	if e := c.find(s, key, h); e != nil {
		c.noteHit(s, e)
		return e.val, true
	}
	return v, false
}

// Add inserts key→val with a pre-recorded recompute cost iff key is
// absent, and reports whether it inserted. It is the warm-fill primitive
// behind snapshot warmup restore and epoch-swap carry-over: successful
// inserts count as warm fills, not misses, so cold-start accounting stays
// distinguishable from serving traffic.
func (c *Cache[V]) Add(key string, val V, costNanos int64) bool {
	s, h := c.locate(key)
	c.lock(s)
	defer s.mu.Unlock()
	if c.find(s, key, h) != nil {
		return false
	}
	s.warmFills.Add(1)
	c.insertLocked(s, key, h, val, costNanos)
	return true
}

// SetCost records the recompute cost of key's entry, iff it is still
// mapped to v (the Remove identity rule) and no cost has been recorded
// yet. The Service calls it once per fill after the solve completes —
// the fill path inserts before computing, so the wall time is only known
// afterwards. Reports whether the cost was recorded.
func (c *Cache[V]) SetCost(key string, v V, costNanos int64) bool {
	if costNanos <= 0 {
		return false
	}
	s, h := c.locate(key)
	c.lock(s)
	defer s.mu.Unlock()
	e := c.find(s, key, h)
	if e == nil || e.val != v || e.cost.Load() != 0 {
		return false
	}
	e.cost.Store(costNanos)
	s.costAdded.Add(uint64(costNanos))
	return true
}

// insertLocked files the absent key (whose hash is h) →val, evicting the
// lowest-scored resident entry if the shard is full. Caller holds s.mu.
// The new entry's insert advances the shard tick, so it outranks every
// entry not hit in the current window; it is itself exempt from this
// eviction scan (it is by construction the most recent).
func (c *Cache[V]) insertLocked(s *shard[V], key string, h uint64, val V, costNanos int64) {
	seq := s.tick.Add(1)
	e := &entry[V]{key: key, val: val, seq: seq}
	e.stamp.Store(seq)
	e.cost.Store(costNanos)
	if costNanos > 0 {
		s.costAdded.Add(uint64(costNanos))
	}
	if len(s.live) < c.perShard {
		s.live = append(s.live, e)
		s.entries.Add(1)
	} else {
		i := victim(s.live)
		old := s.live[i]
		s.live[i] = e
		c.unlink(s, old, hash(old.key))
		s.evictions.Add(1)
		c.evictions.Add(1)
		if cost := old.cost.Load(); cost > 0 {
			s.costEvicted.Add(uint64(cost))
		}
	}
	c.place(s, e, h)
}

// victim returns the position in live of the entry eviction drops: the
// one minimizing stamp + costBonus(cost), the oldest insert on ties.
func victim[V comparable](live []*entry[V]) int {
	vi, vScore, vSeq := -1, int64(0), int64(0)
	for i, e := range live {
		score := e.stamp.Load() + costBonus(e.cost.Load())
		if vi < 0 || score < vScore || (score == vScore && e.seq < vSeq) {
			vi, vScore, vSeq = i, score, e.seq
		}
	}
	return vi
}

// place stores e, which s.live already holds, in the first free or
// tombstoned slot of its probe chain. If that could push the used slots
// past ¾ of the index, it instead rebuilds the index from s.live at
// twice the resident count and publishes it. Caller holds s.mu.
func (c *Cache[V]) place(s *shard[V], e *entry[V], h uint64) {
	ix := s.idx.Load()
	if (s.used+1)*4 > len(ix.slots)*3 {
		s.idx.Store(build(s.live))
		s.used = len(s.live)
		return
	}
	mask := uint64(len(ix.slots) - 1)
	for i := h >> ix.shift; ; i = (i + 1) & mask {
		switch ix.slots[i].Load() {
		case nil:
			s.used++
		case c.tomb:
		default:
			continue
		}
		ix.slots[i].Store(e)
		return
	}
}

// build returns a fresh index holding live, sized to the power of two at
// or above twice its length (at least minSlots).
func build[V comparable](live []*entry[V]) *index[V] {
	n := ceilPow2(max(2*len(live), minSlots))
	ix := &index[V]{
		slots: make([]atomic.Pointer[entry[V]], n),
		shift: uint(64 - bits.TrailingZeros(uint(n))),
	}
	mask := uint64(n - 1)
	for _, e := range live {
		i := hash(e.key) >> ix.shift
		for ix.slots[i].Load() != nil {
			i = (i + 1) & mask
		}
		ix.slots[i].Store(e)
	}
	return ix
}

// unlink tombstones the slot holding e (whose key hashes to h) in the
// shard's current index. Caller holds s.mu; e must be resident.
func (c *Cache[V]) unlink(s *shard[V], e *entry[V], h uint64) {
	ix := s.idx.Load()
	mask := uint64(len(ix.slots) - 1)
	i := h >> ix.shift
	for ix.slots[i].Load() != e {
		i = (i + 1) & mask
	}
	ix.slots[i].Store(c.tomb)
}

// costBonus converts a recompute cost into extra recency ticks: an entry
// worth costNanos of solver time scores as if it were hit 8·log₂(cost in
// ~0.5ms units) ticks more recently than its stamp says. Costs under
// ~0.5ms carry no bonus at all — at that scale recomputing is about as
// cheap as serving, so cheap entries (tree-scheme lookups, small
// heuristics) compete on pure recency and the policy degenerates to
// exact LRU (which the determinism tests rely on). Above the floor the
// bonus is logarithmic and bounded (≈8 ticks per cost doubling, well
// under 400 ticks for any real cost), so an expensive exact solve
// outlives cheap neighbours of equal recency but cannot pin its slot
// forever once it goes cold.
func costBonus(costNanos int64) int64 {
	if costNanos <= 0 {
		return 0
	}
	return int64(8 * bits.Len64(uint64(costNanos)>>19))
}

// Remove drops key iff it is still mapped to v and reports whether it
// did. The identity check makes removal safe against the ABA race where a
// capacity eviction plus re-insert replaced the caller's entry with a
// fresh one between its insert and its Remove: the fresh entry survives.
// Removals are deliberate (not capacity pressure) and are not counted by
// Evictions.
func (c *Cache[V]) Remove(key string, v V) bool {
	s, h := c.locate(key)
	c.lock(s)
	defer s.mu.Unlock()
	e := c.find(s, key, h)
	if e == nil || e.val != v {
		return false
	}
	c.unlink(s, e, h)
	i, last := slices.Index(s.live, e), len(s.live)-1
	s.live[i] = s.live[last]
	s.live[last] = nil
	s.live = s.live[:last]
	s.entries.Add(-1)
	if cost := e.cost.Load(); cost > 0 {
		s.costRemoved.Add(uint64(cost))
	}
	return true
}

// Range calls f for every resident entry with its recorded cost, until f
// returns false. It walks each shard's index lock-free, so under
// concurrent writes it may or may not report an entry evicted or removed
// mid-walk, and it skips entries inserted after the walk reached their
// shard; it reports each key at most once. Range does not count hits or
// refresh recency; it exists for warmup serialization and diagnostics,
// not serving.
func (c *Cache[V]) Range(f func(key string, v V, costNanos int64) bool) {
	for i := range c.shards {
		s := &c.shards[i]
		// A key evicted and re-inserted mid-walk can sit in two slots the
		// walk visits. Its new entry carries a seq past the tick read
		// here, before the index: skipping those keeps the walk to entries
		// inserted before it began, at most one per key.
		tick := s.tick.Load()
		ix := s.idx.Load()
		for j := range ix.slots {
			e := ix.slots[j].Load()
			if e == nil || e == c.tomb || e.seq > tick {
				continue
			}
			if !f(e.key, e.val, e.cost.Load()) {
				return
			}
		}
	}
}

// Len returns the total number of resident entries, summed across the
// shards' counts. Lock-free; the sum is not an atomic point-in-time
// snapshot under concurrent writes — fine for monitoring, which is its
// job.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		n += int(c.shards[i].entries.Load())
	}
	return n
}

// Occupancy returns the number of resident entries per shard, in shard
// order. Uniformly distributed keys should fill shards about evenly; a
// heavily skewed occupancy means the key space is not hashing well.
func (c *Cache[V]) Occupancy() []int {
	occ := make([]int, len(c.shards))
	for i := range c.shards {
		occ[i] = int(c.shards[i].entries.Load())
	}
	return occ
}

// ShardStat is one shard's counters and occupancy, as returned by
// ShardStats. Hits counts successful lock-free lookups (GetOrAdd hits
// and Gets) on keys hashing to the shard; Misses counts GetOrAdd
// inserts; WarmFills counts Add inserts; Evictions counts
// capacity-pressure drops (conditional Removes are not counted, matching
// Evictions()). The Cost fields carry the recompute-cost ledger in
// nanoseconds: CostAdded − CostEvicted − CostRemoved is the cost resident
// in the shard, and CostSaved accumulates the cost of every hit — solver
// time the cache turned into a map lookup.
type ShardStat struct {
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	WarmFills   uint64
	Entries     int
	CostAdded   uint64
	CostEvicted uint64
	CostRemoved uint64
	CostSaved   uint64
}

// ShardStats returns per-shard counters and occupancy, in shard order —
// the observability view behind per-shard /metrics series. Hits sum to
// the hit total, misses to the miss total, evictions to Evictions().
// Lock-free: each shard's counters, its entry count included, are
// atomics, so the slice is approximately consistent per shard but never
// blocks a writer.
func (c *Cache[V]) ShardStats() []ShardStat {
	out := make([]ShardStat, len(c.shards))
	for i := range c.shards {
		s := &c.shards[i]
		out[i] = ShardStat{
			Hits:        s.hits.Load(),
			Misses:      s.misses.Load(),
			Evictions:   s.evictions.Load(),
			WarmFills:   s.warmFills.Load(),
			Entries:     int(s.entries.Load()),
			CostAdded:   s.costAdded.Load(),
			CostEvicted: s.costEvicted.Load(),
			CostRemoved: s.costRemoved.Load(),
			CostSaved:   s.costSaved.Load(),
		}
	}
	return out
}

// CostStats is the cache-wide recompute-cost ledger, in nanoseconds of
// solver wall time: Added accumulates costs recorded at fill (SetCost
// and warm Adds), Evicted and Removed the cost of entries dropped by
// capacity pressure and conditional removal, and Saved the cost of every
// hit. Resident cost — solver time currently banked in the cache — is
// Added − Evicted − Removed, an identity the reconciliation tests
// assert.
type CostStats struct {
	Added   uint64
	Evicted uint64
	Removed uint64
	Saved   uint64
}

// Resident returns the cost currently banked in resident entries.
func (cs CostStats) Resident() uint64 { return cs.Added - cs.Evicted - cs.Removed }

// CostStats sums the per-shard cost ledgers. Lock-free, monitoring-grade
// consistency like ShardStats.
func (c *Cache[V]) CostStats() CostStats {
	var cs CostStats
	for i := range c.shards {
		s := &c.shards[i]
		cs.Added += s.costAdded.Load()
		cs.Evicted += s.costEvicted.Load()
		cs.Removed += s.costRemoved.Load()
		cs.Saved += s.costSaved.Load()
	}
	return cs
}

// WarmFills returns how many entries were installed by Add (warm fills)
// across all shards since construction.
func (c *Cache[V]) WarmFills() uint64 {
	var n uint64
	for i := range c.shards {
		n += c.shards[i].warmFills.Load()
	}
	return n
}

// Shards returns the shard count (always a power of two).
func (c *Cache[V]) Shards() int { return len(c.shards) }

// PerShard returns the per-shard entry capacity (always ≥ 1).
func (c *Cache[V]) PerShard() int { return c.perShard }

// Capacity returns the effective total capacity, Shards() × PerShard() —
// at least the capacity requested of New, rounded up to a multiple of the
// shard count.
func (c *Cache[V]) Capacity() int { return len(c.shards) * c.perShard }

// Evictions returns how many entries capacity pressure has dropped across
// all shards since construction. Conditional Removes are not counted.
func (c *Cache[V]) Evictions() uint64 { return c.evictions.Load() }

// LockAcquisitions returns how many times any shard mutex has been
// acquired since construction — by design zero over a hit-only workload,
// which the concurrency tests assert to pin the read path lock-free.
func (c *Cache[V]) LockAcquisitions() uint64 { return c.lockAcquires.Load() }
