package histogram

import (
	"sync/atomic"
	"time"
)

// Atomic is a fixed-bucket histogram safe for concurrent observation: the
// lock-free, serving-side counterpart of Hist1D. Where Hist1D fills from
// materialized analysis results, Atomic sits on hot paths (per-query
// latency tracking) and costs a binary search plus three atomic adds per
// observation. Bucket bounds are upper bounds in ascending order; one
// implicit overflow bucket catches everything above the last bound.
type Atomic struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; the last is the +Inf bucket
	count   atomic.Int64
	// sumNanos accumulates durations in nanoseconds; Sum converts to
	// seconds, keeping the hot path free of floating-point CAS loops.
	sumNanos atomic.Int64
}

// NewAtomic creates an atomic histogram over the given ascending upper
// bounds (in seconds, for latency use). The bounds slice is not copied;
// callers must not mutate it.
func NewAtomic(bounds []float64) *Atomic {
	return &Atomic{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
}

// ObserveDuration records one latency sample.
func (a *Atomic) ObserveDuration(d time.Duration) {
	a.observe(d.Seconds(), int64(d))
}

func (a *Atomic) observe(v float64, nanos int64) {
	// Binary search for the first bound >= v; ~5 steps over the default
	// latency bounds.
	lo, hi := 0, len(a.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= a.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	a.buckets[lo].Add(1)
	a.count.Add(1)
	a.sumNanos.Add(nanos)
}

// Bounds returns the bucket upper bounds (shared; read-only).
func (a *Atomic) Bounds() []float64 { return a.bounds }

// Snapshot returns cumulative bucket counts (one per bound, plus the
// trailing +Inf bucket), the total observation count and the sum in
// seconds. The three are read without a global lock, so under concurrent
// observation they may disagree by in-flight samples; each is internally
// consistent enough for monitoring.
func (a *Atomic) Snapshot() (cumulative []int64, count int64, sumSeconds float64) {
	cumulative = make([]int64, len(a.buckets))
	var running int64
	for i := range a.buckets {
		running += a.buckets[i].Load()
		cumulative[i] = running
	}
	return cumulative, a.count.Load(), float64(a.sumNanos.Load()) / 1e9
}
