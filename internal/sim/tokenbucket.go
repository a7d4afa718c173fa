// Package sim provides the simulated performance substrate that stands in
// for the paper's AWS testbed: an NVMe-like disk model with synchronous and
// page-cache write paths, a network link model with RTT and bandwidth
// shaping, and an object-store model with per-stream and aggregate
// throughput caps (EFS/S3-like). See DESIGN.md §2 for the substitution
// rationale. Net is an in-memory address space for the wire protocol: every
// listener has an address of its own, and each dialer shapes its
// connections with a link model, so an in-process cluster runs the
// process topology with modelled network paths.
//
// All models are expressed in real time: a simulated device makes the caller
// wait as long as the modelled hardware would (divided by a configurable
// scale factor so experiments finish quickly on small machines). Ratios
// between systems — the reproduction target — are scale-invariant.
package sim

import (
	"sync"
	"time"
)

// TokenBucket is a blocking byte-rate limiter. Take(n) returns after the
// caller's n bytes have "passed through" a resource with the configured
// bandwidth. Unlike typical rate limiters it models serialization: requests
// queue behind each other, so concurrent callers observe growing latency as
// the resource saturates.
type TokenBucket struct {
	mu          sync.Mutex
	bytesPerSec float64
	burst       time.Duration // how far ahead of real time the bucket may run
	nextFree    time.Time
	sleep       func(time.Duration)
	now         func() time.Time
}

// NewTokenBucket creates a limiter with the given bandwidth and burst
// allowance. bytesPerSec <= 0 means unlimited.
func NewTokenBucket(bytesPerSec float64, burst time.Duration) *TokenBucket {
	return &TokenBucket{
		bytesPerSec: bytesPerSec,
		burst:       burst,
		sleep:       time.Sleep,
		now:         time.Now,
	}
}

// Take blocks until n bytes worth of capacity has been consumed. It returns
// the time the caller had to wait.
func (tb *TokenBucket) Take(n int) time.Duration {
	return tb.TakeWithOverhead(n, 0)
}

// TakeWithOverhead is Take plus a fixed per-operation service time (e.g. a
// seek or a sync) that also occupies the resource.
func (tb *TokenBucket) TakeWithOverhead(n int, overhead time.Duration) time.Duration {
	tb.mu.Lock()
	if tb.bytesPerSec <= 0 && overhead == 0 {
		tb.mu.Unlock()
		return 0
	}
	now := tb.now()
	var service time.Duration
	if tb.bytesPerSec > 0 {
		service = time.Duration(float64(n) / tb.bytesPerSec * float64(time.Second))
	}
	service += overhead
	start := tb.nextFree
	if earliest := now.Add(-tb.burst); start.Before(earliest) {
		start = earliest
	}
	done := start.Add(service)
	tb.nextFree = done
	tb.mu.Unlock()

	wait := done.Sub(now)
	if wait > 0 {
		tb.sleep(wait)
	}
	if wait < 0 {
		wait = 0
	}
	return wait
}
