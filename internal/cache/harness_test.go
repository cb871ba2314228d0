package cache

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// box is the harness value type: every insert allocates a fresh pointer,
// so identity distinguishes generations of the same key — once a
// particular box is removed, no later lookup may ever return it again.
type box struct {
	key string
	gen int
}

// refCache is the mutex-guarded reference implementation: one global
// lock, one plain map, the same conditional-op semantics as Cache but
// none of the lock-free index machinery. The sequential equivalence test
// replays an op tape against both and reconciles every outcome.
type refCache struct {
	mu    sync.Mutex
	table map[string]*box
}

func newRef() *refCache { return &refCache{table: make(map[string]*box)} }

func (r *refCache) getOrAdd(key string, newf func() *box) (*box, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.table[key]; ok {
		return v, true
	}
	v := newf()
	r.table[key] = v
	return v, false
}

func (r *refCache) get(key string) (*box, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.table[key]
	return v, ok
}

func (r *refCache) add(key string, v *box) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.table[key]; ok {
		return false
	}
	r.table[key] = v
	return true
}

func (r *refCache) remove(key string, v *box) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur, ok := r.table[key]; ok && cur == v {
		delete(r.table, key)
		return true
	}
	return false
}

func (r *refCache) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.table)
}

// harnessShardCounts are the configurations every harness test sweeps:
// the degenerate single shard, the smallest real split, the default, and
// the 64-way config CI pins for the cache-stress job.
var harnessShardCounts = []int{1, 2, 0, 64}

// TestSequentialEquivalenceVsReference replays one randomized op tape
// (GetOrAdd / Get / Add / Remove / SetCost) against the lock-free cache
// and the mutex-guarded reference, reconciling every outcome per key:
// same hit/insert decision, same value identity, same conditional-remove
// verdict, same final occupancy. Capacity exceeds the key space so no
// eviction fires — eviction order is pinned separately by
// TestEvictionEquivalenceVsReference; this test pins the lock-free index
// semantics against the one-lock model.
func TestSequentialEquivalenceVsReference(t *testing.T) {
	const keys = 64
	for _, shards := range harnessShardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(1000 + shards)))
			c := New[*box](4*keys*MaxDefaultShards, shards) // per-shard floor can multiply capacity; stay above it
			ref := newRef()
			gen := 0
			for op := 0; op < 5000; op++ {
				key := fmt.Sprintf("k%02d", r.Intn(keys))
				switch r.Intn(5) {
				case 0, 1: // GetOrAdd
					gen++
					fresh := &box{key: key, gen: gen}
					got, hit := c.GetOrAdd(key, func() *box { return fresh })
					want, refHit := ref.getOrAdd(key, func() *box { return fresh })
					if hit != refHit || got != want {
						t.Fatalf("op %d GetOrAdd(%q): cache (%p,%v) vs ref (%p,%v)", op, key, got, hit, want, refHit)
					}
				case 2: // Get
					got, ok := c.Get(key)
					want, refOK := ref.get(key)
					if ok != refOK || got != want {
						t.Fatalf("op %d Get(%q): cache (%p,%v) vs ref (%p,%v)", op, key, got, ok, want, refOK)
					}
				case 3: // Add (warm fill)
					gen++
					fresh := &box{key: key, gen: gen}
					if ins, refIns := c.Add(key, fresh, 1000), ref.add(key, fresh); ins != refIns {
						t.Fatalf("op %d Add(%q): cache %v vs ref %v", op, key, ins, refIns)
					}
				case 4: // Remove current mapping (or a stale box half the time)
					cur, ok := ref.get(key)
					if !ok {
						continue
					}
					victim := cur
					if r.Intn(2) == 0 {
						victim = &box{key: key, gen: -1} // never-inserted identity: both must refuse
					}
					if rem, refRem := c.Remove(key, victim), ref.remove(key, victim); rem != refRem {
						t.Fatalf("op %d Remove(%q,%d): cache %v vs ref %v", op, key, victim.gen, rem, refRem)
					}
				}
			}
			if c.Len() != ref.len() {
				t.Fatalf("final occupancy: cache %d vs ref %d", c.Len(), ref.len())
			}
			// With zero evictions the fill identity must be exact.
			st := sumShardStats(c)
			if ev := c.Evictions(); ev != 0 {
				t.Fatalf("capacity sized above key space, yet %d evictions", ev)
			}
			wantLen := int(st.Misses+st.WarmFills) - removalsIn(c, ref)
			if c.Len() != wantLen {
				t.Fatalf("entries %d != misses %d + warmFills %d - removals %d", c.Len(), st.Misses, st.WarmFills, removalsIn(c, ref))
			}
		})
	}
}

// policyRef is the eviction-order reference model: per shard (assigned
// by the cache's own ShardIndex), a plain map of entries carrying the
// same seq, stamp and cost, the same insert-and-every-16th-hit tick, and
// the eviction rule written out again — minimum stamp + 8·log₂(cost in
// 2¹⁹ ns units), oldest insert on ties — applied by a scan of the map.
type policyRef struct {
	perShard int
	shardOf  func(string) int
	shards   []policyShard
	victims  []string
}

type policyShard struct {
	table map[string]*policyEntry
	tick  int64
	stats ShardStat // Entries unused: len(table) is the occupancy
}

type policyEntry struct {
	val              *box
	seq, stamp, cost int64
}

func newPolicyRef(c *Cache[*box]) *policyRef {
	p := &policyRef{perShard: c.PerShard(), shardOf: c.ShardIndex, shards: make([]policyShard, c.Shards())}
	for i := range p.shards {
		p.shards[i].table = make(map[string]*policyEntry)
	}
	return p
}

func (s *policyShard) hit(e *policyEntry) {
	s.stats.Hits++
	if s.stats.Hits%16 == 0 {
		s.tick++
	}
	e.stamp = s.tick + 1
	if e.cost > 0 {
		s.stats.CostSaved += uint64(e.cost)
	}
}

func (p *policyRef) insert(s *policyShard, key string, v *box, cost int64) {
	s.tick++
	if cost > 0 {
		s.stats.CostAdded += uint64(cost)
	}
	if len(s.table) >= p.perShard {
		var vk string
		var ve *policyEntry
		var vScore int64
		for k, e := range s.table {
			score := e.stamp
			if e.cost > 0 {
				score += int64(8 * bits.Len64(uint64(e.cost)>>19))
			}
			if ve == nil || score < vScore || (score == vScore && e.seq < ve.seq) {
				vk, ve, vScore = k, e, score
			}
		}
		delete(s.table, vk)
		s.stats.Evictions++
		if ve.cost > 0 {
			s.stats.CostEvicted += uint64(ve.cost)
		}
		p.victims = append(p.victims, vk)
	}
	s.table[key] = &policyEntry{val: v, seq: s.tick, stamp: s.tick, cost: cost}
}

func (p *policyRef) getOrAdd(key string, v *box) (*box, bool) {
	s := &p.shards[p.shardOf(key)]
	if e, ok := s.table[key]; ok {
		s.hit(e)
		return e.val, true
	}
	s.stats.Misses++
	p.insert(s, key, v, 0)
	return v, false
}

func (p *policyRef) get(key string) (*box, bool) {
	s := &p.shards[p.shardOf(key)]
	if e, ok := s.table[key]; ok {
		s.hit(e)
		return e.val, true
	}
	return nil, false
}

func (p *policyRef) add(key string, v *box, cost int64) bool {
	s := &p.shards[p.shardOf(key)]
	if _, ok := s.table[key]; ok {
		return false
	}
	s.stats.WarmFills++
	p.insert(s, key, v, cost)
	return true
}

func (p *policyRef) setCost(key string, v *box, cost int64) bool {
	s := &p.shards[p.shardOf(key)]
	e, ok := s.table[key]
	if cost <= 0 || !ok || e.val != v || e.cost != 0 {
		return false
	}
	e.cost = cost
	s.stats.CostAdded += uint64(cost)
	return true
}

func (p *policyRef) remove(key string, v *box) bool {
	s := &p.shards[p.shardOf(key)]
	e, ok := s.table[key]
	if !ok || e.val != v {
		return false
	}
	delete(s.table, key)
	if e.cost > 0 {
		s.stats.CostRemoved += uint64(e.cost)
	}
	return true
}

// resident is one key's state as Range reports it.
type resident struct {
	val  *box
	cost int64
}

// TestEvictionEquivalenceVsReference replays a randomized tape of 20k
// GetOrAdd / Get / Add / Remove / SetCost ops, with a key space larger
// than the capacity so most inserts evict, against the cache and
// policyRef, and after every op requires the same outcome, the same
// victim, and the same Len, Occupancy, ShardStats, CostStats and Range
// contents. Per-shard capacities {1, 3, 16} over {1, 2} shards put the
// tape through many index rebuilds, tombstone reuses and the
// single-slot start.
func TestEvictionEquivalenceVsReference(t *testing.T) {
	costs := []int64{1_000, 400_000, 600_000, 5_000_000, 80_000_000}
	for _, shards := range []int{1, 2} {
		for _, perShard := range []int{1, 3, 16} {
			t.Run(fmt.Sprintf("shards=%d/perShard=%d", shards, perShard), func(t *testing.T) {
				c := New[*box](shards*perShard, shards)
				if c.PerShard() != perShard {
					t.Fatalf("geometry: perShard %d, want %d", c.PerShard(), perShard)
				}
				ref := newPolicyRef(c)
				keys := 3*shards*perShard + 2
				r := rand.New(rand.NewSource(int64(19*shards + perShard)))
				prev := map[string]resident{}
				gen := 0
				for op := 0; op < 20000; op++ {
					victims := len(ref.victims)
					removed := ""
					// Squaring skews the draw toward low keys, so hits
					// refresh stamps between evictions.
					f := r.Float64()
					key := fmt.Sprintf("k%03d", int(f*f*float64(keys)))
					var what string
					switch r.Intn(8) {
					case 0, 1, 2: // GetOrAdd
						gen++
						fresh := &box{key: key, gen: gen}
						got, hit := c.GetOrAdd(key, func() *box { return fresh })
						want, refHit := ref.getOrAdd(key, fresh)
						what = fmt.Sprintf("GetOrAdd(%q) = (%v, %v), reference (%v, %v)", key, got.gen, hit, want.gen, refHit)
						if got != want || hit != refHit {
							t.Fatalf("op %d: %s", op, what)
						}
					case 3: // Get
						got, ok := c.Get(key)
						want, refOK := ref.get(key)
						what = fmt.Sprintf("Get(%q) = (%p, %v), reference (%p, %v)", key, got, ok, want, refOK)
						if got != want || ok != refOK {
							t.Fatalf("op %d: %s", op, what)
						}
					case 4: // Add (warm fill) with a recorded cost
						gen++
						fresh := &box{key: key, gen: gen}
						cost := costs[r.Intn(len(costs))]
						ins, refIns := c.Add(key, fresh, cost), ref.add(key, fresh, cost)
						what = fmt.Sprintf("Add(%q, %d) = %v, reference %v", key, cost, ins, refIns)
						if ins != refIns {
							t.Fatalf("op %d: %s", op, what)
						}
					case 5, 6: // SetCost on the current value, or on a stale one
						v := prev[key].val
						if v == nil || r.Intn(4) == 0 {
							v = &box{key: key, gen: -1}
						}
						cost := costs[r.Intn(len(costs))]
						set, refSet := c.SetCost(key, v, cost), ref.setCost(key, v, cost)
						what = fmt.Sprintf("SetCost(%q, %d) = %v, reference %v", key, cost, set, refSet)
						if set != refSet {
							t.Fatalf("op %d: %s", op, what)
						}
					case 7: // Remove the current value, or a stale one
						v := prev[key].val
						if v == nil || r.Intn(2) == 0 {
							v = &box{key: key, gen: -1}
						}
						rem, refRem := c.Remove(key, v), ref.remove(key, v)
						what = fmt.Sprintf("Remove(%q) = %v, reference %v", key, rem, refRem)
						if rem != refRem {
							t.Fatalf("op %d: %s", op, what)
						}
						if rem {
							removed = key
						}
					}
					now := map[string]resident{}
					c.Range(func(k string, v *box, cost int64) bool {
						if _, dup := now[k]; dup {
							t.Fatalf("op %d (%s): Range reported %q twice", op, what, k)
						}
						now[k] = resident{v, cost}
						return true
					})
					wantLost := slices.Clone(ref.victims[victims:])
					if removed != "" {
						wantLost = append(wantLost, removed)
					}
					checkAgainstPolicy(t, op, what, c, ref, prev, now, wantLost)
					prev = now
				}
				if c.Evictions() < 5000 {
					t.Fatalf("only %d evictions over the tape: it does not exercise eviction order", c.Evictions())
				}
			})
		}
	}
}

// checkAgainstPolicy compares the cache's observable state after one op
// with the reference's: the keys Range lost since the op began against
// the reference's victim and removal (wantLost), then Evictions, Len,
// Occupancy, every ShardStats field, CostStats, and each resident key's
// value and cost.
func checkAgainstPolicy(t *testing.T, op int, what string, c *Cache[*box], ref *policyRef, prev, now map[string]resident, wantLost []string) {
	t.Helper()
	var lost []string
	for k, was := range prev {
		if cur, ok := now[k]; !ok || cur.val != was.val {
			lost = append(lost, k)
		}
	}
	if !slices.Equal(lost, wantLost) {
		t.Fatalf("op %d (%s): the cache dropped %v, the reference %v", op, what, lost, wantLost)
	}
	var evictions uint64
	var want CostStats
	stats, occ := c.ShardStats(), c.Occupancy()
	total := 0
	for i := range ref.shards {
		rs := &ref.shards[i]
		ws := rs.stats
		ws.Entries = len(rs.table)
		if stats[i] != ws {
			t.Fatalf("op %d (%s): shard %d stats %+v, reference %+v", op, what, i, stats[i], ws)
		}
		if occ[i] != len(rs.table) {
			t.Fatalf("op %d (%s): shard %d occupancy %d, reference %d", op, what, i, occ[i], len(rs.table))
		}
		total += len(rs.table)
		evictions += ws.Evictions
		want.Added += ws.CostAdded
		want.Evicted += ws.CostEvicted
		want.Removed += ws.CostRemoved
		want.Saved += ws.CostSaved
		for k, e := range rs.table {
			if got, ok := now[k]; !ok || got.val != e.val || got.cost != e.cost {
				t.Fatalf("op %d (%s): Range has %q as %+v (present %v), reference %+v", op, what, k, got, ok, *e)
			}
		}
	}
	if len(now) != total || c.Len() != total {
		t.Fatalf("op %d (%s): Range reports %d keys and Len %d, reference holds %d", op, what, len(now), c.Len(), total)
	}
	if c.Evictions() != evictions || uint64(len(ref.victims)) != evictions {
		t.Fatalf("op %d (%s): Evictions %d, reference %d", op, what, c.Evictions(), evictions)
	}
	if cs := c.CostStats(); cs != want {
		t.Fatalf("op %d (%s): CostStats %+v, reference %+v", op, what, cs, want)
	}
}

// removalsIn recomputes successful removals from the fill/occupancy
// identity — the cache does not count removals itself (the Service layer
// does), so the test derives them: removals = fills − entries.
func removalsIn(c *Cache[*box], ref *refCache) int {
	st := sumShardStats(c)
	return int(st.Misses+st.WarmFills) - ref.len()
}

// sumShardStats folds ShardStats into one ShardStat.
func sumShardStats(c *Cache[*box]) ShardStat {
	var total ShardStat
	for _, ss := range c.ShardStats() {
		total.Hits += ss.Hits
		total.Misses += ss.Misses
		total.Evictions += ss.Evictions
		total.WarmFills += ss.WarmFills
		total.Entries += ss.Entries
		total.CostAdded += ss.CostAdded
		total.CostEvicted += ss.CostEvicted
		total.CostRemoved += ss.CostRemoved
		total.CostSaved += ss.CostSaved
	}
	return total
}

// TestConcurrentHarnessInvariants is the randomized interleaving hammer:
// goroutines fire Get/GetOrAdd/Add/SetCost/Remove at a small key space
// under forced-high GOMAXPROCS, with capacity tight enough that eviction
// runs hot, across shard counts {1, 2, default, 64}. Concurrency makes
// final states nondeterministic, so the reconciliation is per-operation
// identity invariants (a lookup for k only ever returns a box inserted
// under k; a removed box is never observed again by its remover) plus
// the closing counter algebra: entries == misses + warmFills − evictions
// − removals == Σ shard entries ≤ capacity, and the cost ledger identity
// resident == added − evicted − removed == Σ resident entry costs.
// Run under -race, this doubles as the memory-model check on the
// in-place index writes and rebuilds.
func TestConcurrentHarnessInvariants(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	if prev < 32 {
		runtime.GOMAXPROCS(32)
		defer runtime.GOMAXPROCS(prev)
	}
	const (
		workers = 16
		opsPer  = 3000
		keys    = 48
	)
	for _, shards := range harnessShardCounts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := New[*box](keys/2, shards) // tight: eviction pressure on every shard
			var gen atomic.Int64
			var removals atomic.Uint64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(7000 + w)))
					held := make(map[string]*box) // boxes this goroutine inserted or observed
					for op := 0; op < opsPer; op++ {
						key := fmt.Sprintf("k%02d", r.Intn(keys))
						switch r.Intn(6) {
						case 0, 1, 2: // GetOrAdd dominates, like the serving path
							fresh := &box{key: key, gen: int(gen.Add(1))}
							got, _ := c.GetOrAdd(key, func() *box { return fresh })
							if got.key != key {
								t.Errorf("GetOrAdd(%q) returned box for %q", key, got.key)
								return
							}
							held[key] = got
						case 3: // lock-free Get
							if got, ok := c.Get(key); ok && got.key != key {
								t.Errorf("Get(%q) returned box for %q", key, got.key)
								return
							}
						case 4: // warm fill with cost
							fresh := &box{key: key, gen: int(gen.Add(1))}
							c.Add(key, fresh, int64(1+r.Intn(1_000_000)))
						case 5: // conditional remove of a previously-seen box
							v, ok := held[key]
							if !ok {
								continue
							}
							if c.Remove(key, v) {
								removals.Add(1)
								delete(held, key)
								// Sequenced after a successful Remove, this
								// goroutine must never see that box again:
								// inserts always allocate fresh boxes, so
								// observing v here means the removal left
								// v reachable in the current index.
								if got, okNow := c.Get(key); okNow && got == v {
									t.Errorf("removed box for %q resurfaced", key)
									return
								}
							}
						}
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			st := sumShardStats(c)
			entries := c.Len()
			if got := int(st.Misses+st.WarmFills) - int(st.Evictions) - int(removals.Load()); got != entries {
				t.Errorf("fill algebra: misses %d + warm %d - evictions %d - removals %d = %d, want entries %d",
					st.Misses, st.WarmFills, st.Evictions, removals.Load(), got, entries)
			}
			if st.Entries != entries {
				t.Errorf("shard entries sum %d != Len %d", st.Entries, entries)
			}
			if entries > c.Capacity() {
				t.Errorf("entries %d exceed capacity %d", entries, c.Capacity())
			}
			cs := c.CostStats()
			var resident uint64
			seen := 0
			c.Range(func(key string, v *box, cost int64) bool {
				if v.key != key {
					t.Errorf("Range: box for %q filed under %q", v.key, key)
				}
				resident += uint64(cost)
				seen++
				return true
			})
			if seen != entries {
				t.Errorf("Range visited %d entries, Len says %d", seen, entries)
			}
			if got := cs.Resident(); got != resident {
				t.Errorf("cost ledger: added %d - evicted %d - removed %d = %d, want Σ resident costs %d",
					cs.Added, cs.Evicted, cs.Removed, got, resident)
			}
		})
	}
}

// TestConcurrentRangeReportsEachKeyOnce walks the cache with Range while
// writers churn evictions, removals and re-inserts of a key set barely
// larger than the capacity, so keys keep leaving one slot and landing in
// another mid-walk. The walk yields between entries to let the writers
// in, and must never report a key twice: WarmupEntries feeds Range into
// the snapshot encoder, whose decoder rejects a repeated key as corrupt.
func TestConcurrentRangeReportsEachKeyOnce(t *testing.T) {
	const keys = 6
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := New[*box](4, shards)
			for i := 0; i < keys; i++ {
				key := fmt.Sprintf("k%d", i)
				c.GetOrAdd(key, func() *box { return &box{key: key} })
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(w)))
					for {
						select {
						case <-stop:
							return
						default:
						}
						key := fmt.Sprintf("k%d", r.Intn(keys))
						v, _ := c.GetOrAdd(key, func() *box { return &box{key: key} })
						if r.Intn(4) == 0 {
							c.Remove(key, v)
						}
					}
				}(w)
			}
			defer func() {
				close(stop)
				wg.Wait()
			}()
			for walk := 0; walk < 20000; walk++ {
				seen := make(map[string]bool, keys)
				c.Range(func(k string, _ *box, _ int64) bool {
					if seen[k] {
						t.Fatalf("walk %d reported %q twice", walk, k)
					}
					seen[k] = true
					runtime.Gosched()
					return true
				})
			}
		})
	}
}

// TestHitPathTakesNoLocks pins the tentpole claim with instrumentation:
// once the working set is resident, an all-hit workload — concurrent
// GetOrAdd and Get across every shard, plus stats scrapes — acquires
// zero shard mutexes.
func TestHitPathTakesNoLocks(t *testing.T) {
	const keys = 128
	c := New[*box](keys*MaxDefaultShards, 64)
	allKeys := make([]string, keys)
	for i := range allKeys {
		allKeys[i] = fmt.Sprintf("k%03d", i)
		k := allKeys[i]
		c.GetOrAdd(k, func() *box { return &box{key: k} })
	}
	before := c.LockAcquisitions()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 5000; i++ {
				k := allKeys[r.Intn(keys)]
				if _, hit := c.GetOrAdd(k, func() *box { t.Errorf("miss for resident %q", k); return &box{key: k} }); !hit {
					return
				}
				if _, ok := c.Get(k); !ok {
					t.Errorf("Get(%q) missed a resident entry", k)
					return
				}
			}
		}(w)
	}
	// Monitoring reads must not take locks either — they run concurrently
	// with scrapes in production.
	c.Len()
	c.ShardStats()
	c.Occupancy()
	c.CostStats()
	c.Range(func(string, *box, int64) bool { return true })
	wg.Wait()

	if after := c.LockAcquisitions(); after != before {
		t.Fatalf("hit-only workload acquired %d shard locks, want 0", after-before)
	}
}

// TestCostAwareEviction pins the cost term in the eviction score: at
// equal recency, the entry that was expensive to compute outlives the
// cheap one even when the cheap one is newer, and the bonus is bounded —
// enough extra hits on the cheap entry still overturn it.
func TestCostAwareEviction(t *testing.T) {
	c := New[*box](2, 1)

	slow := &box{key: "slow"}
	c.GetOrAdd("slow", func() *box { return slow })
	if !c.SetCost("slow", slow, 5_000_000) { // a 5ms exact solve
		t.Fatal("SetCost refused the fill")
	}
	cheap := &box{key: "cheap"}
	c.GetOrAdd("cheap", func() *box { return cheap })
	if !c.SetCost("cheap", cheap, 2_000) { // a 2µs tree lookup
		t.Fatal("SetCost refused the fill")
	}

	// Under strict LRU the next insert would evict "slow" (oldest). The
	// cost bonus must keep it resident and sacrifice "cheap" instead.
	c.GetOrAdd("new", func() *box { return &box{key: "new"} })
	if _, ok := c.Get("slow"); !ok {
		t.Fatal("expensive entry was evicted at equal recency — cost bonus not applied")
	}
	if _, ok := c.Get("cheap"); ok {
		t.Fatal("cheap entry survived over the expensive one")
	}

	// Boundedness: ~8 ticks per cost doubling means a dozen insert ticks
	// without hits must eventually overturn even a 5ms entry. (The Gets
	// above re-stamped "slow", so push well past the bonus.)
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("filler%03d", i)
		c.GetOrAdd(k, func() *box { return &box{key: k} })
	}
	if _, ok := c.Get("slow"); ok {
		t.Fatal("cold expensive entry pinned its slot past the bounded bonus")
	}

	if cs := c.CostStats(); cs.Added != 5_002_000 || cs.Resident() != cs.Added-cs.Evicted-cs.Removed {
		t.Fatalf("cost ledger off: %+v", cs)
	}
}

// TestSetCostConditions pins SetCost's guard rails: identity mismatch,
// double-set, absent key and non-positive costs are all refused.
func TestSetCostConditions(t *testing.T) {
	c := New[*box](8, 1)
	v := &box{key: "a"}
	c.GetOrAdd("a", func() *box { return v })

	if c.SetCost("a", &box{key: "a"}, 100) {
		t.Error("SetCost accepted a different identity")
	}
	if c.SetCost("missing", v, 100) {
		t.Error("SetCost accepted an absent key")
	}
	if c.SetCost("a", v, 0) || c.SetCost("a", v, -5) {
		t.Error("SetCost accepted a non-positive cost")
	}
	if !c.SetCost("a", v, 100) {
		t.Error("SetCost refused a valid first fill")
	}
	if c.SetCost("a", v, 200) {
		t.Error("SetCost overwrote an already-recorded cost")
	}
	if cs := c.CostStats(); cs.Added != 100 {
		t.Errorf("CostAdded = %d, want 100", cs.Added)
	}
}

// TestWarmAddSemantics pins Add: insert-if-absent, counted as a warm
// fill (not a miss), cost recorded at insert.
func TestWarmAddSemantics(t *testing.T) {
	c := New[*box](8, 2)
	v1 := &box{key: "a"}
	if !c.Add("a", v1, 300) {
		t.Fatal("Add refused an absent key")
	}
	if c.Add("a", &box{key: "a"}, 400) {
		t.Fatal("Add overwrote a resident key")
	}
	got, ok := c.Get("a")
	if !ok || got != v1 {
		t.Fatalf("Get after Add = (%p,%v), want (%p,true)", got, ok, v1)
	}
	st := sumShardStats(c)
	if st.WarmFills != 1 || st.Misses != 0 {
		t.Errorf("warmFills=%d misses=%d, want 1/0", st.WarmFills, st.Misses)
	}
	if st.CostAdded != 300 {
		t.Errorf("CostAdded=%d, want 300 (second Add must not count)", st.CostAdded)
	}
	if c.WarmFills() != 1 {
		t.Errorf("WarmFills()=%d, want 1", c.WarmFills())
	}
}
