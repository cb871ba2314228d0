//go:build !race

package steiner_test

// raceEnabled reports whether the race detector instruments this build;
// the allocation pins skip under it (race mode makes sync.Pool drop
// items pseudo-randomly, so pooled scratch legitimately reallocates).
const raceEnabled = false
