package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram records int64 values in logarithmic (HDR-style) buckets:
// recording is lock-free, O(1) and allocation-free while percentile error
// stays below ~1%. Registry.Histogram hands out exported series handles;
// NewHistogram serves measurements that are never exported (the benchmark
// harnesses). Latencies are recorded in microseconds by convention; name
// such series with a _us suffix. Safe for concurrent use.
type Histogram struct {
	buckets [bucketCount]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	min     atomic.Int64
}

const (
	// subBits controls per-decade resolution: 2^subBits linear sub-buckets
	// per power of two, giving worst-case relative error 1/2^subBits.
	subBits     = 7
	subCount    = 1 << subBits
	maxExponent = 40 // values up to 2^40 (~12.7 days in µs)
	bucketCount = maxExponent * subCount
)

// NewHistogram returns an empty, unregistered histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subCount {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1
	shift := exp - subBits
	sub := int(v>>uint(shift)) - subCount
	idx := (exp-subBits+1)*subCount + sub
	if idx >= bucketCount {
		idx = bucketCount - 1
	}
	return idx
}

func bucketValue(idx int) int64 {
	if idx < subCount {
		return int64(idx)
	}
	exp := idx/subCount + subBits - 1
	sub := idx % subCount
	return (int64(subCount) + int64(sub)) << uint(exp-subBits)
}

// Record adds one observation.
func (h *Histogram) Record(v int64) {
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
}

// RecordSince records the elapsed time since t0 in microseconds.
func (h *Histogram) RecordSince(t0 time.Time) { h.Record(time.Since(t0).Microseconds()) }

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean returns the arithmetic mean of observations, or 0 when empty.
func (h *Histogram) Mean() float64 {
	c := h.count.Load()
	if c == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(c)
}

// Sum returns the sum of all recorded observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest recorded value, or 0 when empty.
func (h *Histogram) Max() int64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.max.Load()
}

// Min returns the smallest recorded value, or 0 when empty.
func (h *Histogram) Min() int64 {
	if h.count.Load() == 0 {
		return 0
	}
	return h.min.Load()
}

// Quantile returns the value at quantile q in [0,1]. Empty histograms
// return 0.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i := 0; i < bucketCount; i++ {
		seen += h.buckets[i].Load()
		if seen >= target {
			return bucketValue(i)
		}
	}
	return h.max.Load()
}

// Reset clears all recorded observations.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
	h.min.Store(math.MaxInt64)
}

// HistogramSnapshot captures the common percentiles in one pass.
type HistogramSnapshot struct {
	Count          int64
	Mean, P50, P95 float64
	P99, Max       float64
}

// Snapshot returns the current percentile summary (values in the recorded
// unit, typically microseconds).
func (h *Histogram) Snapshot() HistogramSnapshot {
	return HistogramSnapshot{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   float64(h.Quantile(0.50)),
		P95:   float64(h.Quantile(0.95)),
		P99:   float64(h.Quantile(0.99)),
		Max:   float64(h.Max()),
	}
}

func (s HistogramSnapshot) String() string {
	return fmt.Sprintf("n=%d mean=%.0f p50=%.0f p95=%.0f p99=%.0f max=%.0f",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max)
}
