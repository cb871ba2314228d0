package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile of samples by the nearest-rank rule on
// the sorted raw samples (no histogram, no interpolation). samples is
// sorted in place.
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(q*float64(len(samples))+0.999999999) - 1
	return samples[max(0, min(rank, len(samples)-1))]
}

// median returns the median of xs, sorting it in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// us and ms convert a duration to fractional microseconds / milliseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rtSample is a reading of the runtime counters the benchmark reports.
type rtSample struct {
	allocBytes, allocObjects, gcCycles uint64
}

var rtNames = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles"}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{allocBytes: s[0].Value.Uint64(), allocObjects: s[1].Value.Uint64(), gcCycles: s[2].Value.Uint64()}
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{a.allocBytes - b.allocBytes, a.allocObjects - b.allocObjects, a.gcCycles - b.gcCycles}
}

func (a rtSample) add(b rtSample) rtSample {
	return rtSample{a.allocBytes + b.allocBytes, a.allocObjects + b.allocObjects, a.gcCycles + b.gcCycles}
}

// liveHeap returns the live heap in bytes after two forced collections:
// the second empties the sync.Pool victim caches the first one keeps.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuProbe times a fixed integer loop: a record of host speed beside each
// run's figures. It never scales any metric.
func cpuProbe() time.Duration {
	start := time.Now()
	x := uint64(1)
	for i := 0; i < 20_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		x ^= x >> 17
	}
	probeSink = x
	return time.Since(start)
}

var probeSink uint64
