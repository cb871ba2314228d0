package snapshot_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/snapshot"
)

// benchCatalog builds the large fixture catalog: a mixed bag of scheme
// families big enough that Freeze+Classify dominates boot time — the
// workload the snapshot subsystem exists to delete.
func benchCatalog() map[string]*bipartite.Graph {
	r := rand.New(rand.NewSource(42))
	cat := make(map[string]*bipartite.Graph)
	for i := 0; i < 4; i++ {
		cat[fmt.Sprintf("random%d", i)] = gen.RandomConnectedBipartite(r, 60, 45, 0.12)
		cat[fmt.Sprintf("tree%d", i)] = gen.RandomTree(r, 500)
		cat[fmt.Sprintf("complete%d", i)] = gen.CompleteBipartite(28, 28)
		cat[fmt.Sprintf("alpha%d", i)] = bipartite.FromHypergraph(gen.AlphaAcyclic(r, 40, 3, 3)).B
	}
	return cat
}

// encodeCatalog persists every scheme of the catalog once.
func encodeCatalog(cat map[string]*bipartite.Graph) map[string][]byte {
	snaps := make(map[string][]byte, len(cat))
	for name, b := range cat {
		c := core.New(b)
		snaps[name] = snapshot.Encode(c.Frozen(), c.Class())
	}
	return snaps
}

// BenchmarkRegistryBootFreeze is the status quo ante: boot the catalog by
// compiling every scheme (Freeze + Classify) into a Registry.
func BenchmarkRegistryBootFreeze(b *testing.B) {
	cat := benchCatalog()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg := core.NewRegistry()
		for name, scheme := range cat {
			reg.Set(name, scheme)
		}
	}
}

// BenchmarkRegistryBootSnapshot boots the same catalog from persisted
// epochs: Decode (mostly zero-copy) + install, no recognizer runs.
func BenchmarkRegistryBootSnapshot(b *testing.B) {
	snaps := encodeCatalog(benchCatalog())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg := core.NewRegistry()
		for name, data := range snaps {
			if _, err := reg.LoadSnapshot(name, data); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDecode isolates the parser+validator on one mid-sized scheme.
func BenchmarkDecode(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	c := core.New(gen.RandomConnectedBipartite(r, 60, 45, 0.12))
	data := snapshot.Encode(c.Frozen(), c.Class())
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snapshot.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSnapshotBootSpeedup pins the acceptance bar: booting the large
// fixture catalog from snapshots must be faster than re-freezing and
// re-classifying it, and the test logs by how much. Classification runs
// straight off the CSR arrays, so on this catalog the margin is single
// digits (about 7–8× on a 2-core container); "faster" is the contract.
// Wall-clock ratios are noisy, so each side takes its best of three runs.
func TestSnapshotBootSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	cat := benchCatalog()
	snaps := encodeCatalog(cat)

	best := func(f func()) time.Duration {
		bestD := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			f()
			if d := time.Since(start); d < bestD {
				bestD = d
			}
		}
		return bestD
	}

	freeze := best(func() {
		reg := core.NewRegistry()
		for name, scheme := range cat {
			reg.Set(name, scheme)
		}
	})
	boot := best(func() {
		reg := core.NewRegistry()
		for name, data := range snaps {
			if _, err := reg.LoadSnapshot(name, data); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("catalog of %d schemes: freeze+classify %v, snapshot boot %v (%.1f×)",
		len(cat), freeze, boot, float64(freeze)/float64(boot))
	if boot >= freeze {
		t.Fatalf("snapshot boot %v is not faster than compile boot %v", boot, freeze)
	}
}
