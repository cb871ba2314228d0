//go:build !race

package cache

// raceEnabled reports whether the race detector instruments this build;
// TestMissOnFullShardAllocs skips under it, since the allocations it pins
// are those of the uninstrumented build.
const raceEnabled = false
