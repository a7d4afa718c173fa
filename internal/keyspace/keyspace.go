// Package keyspace implements routing-key hashing and key-range arithmetic.
//
// Pravega maps routing keys onto the unit interval [0,1) with a uniform hash
// (§2.1 of the paper); every stream segment owns a half-open sub-range of
// that interval. Scaling events split or merge ranges, and the invariant the
// controller maintains is that the active ranges of an epoch exactly
// partition [0,1).
package keyspace

import (
	"fmt"
	"hash/fnv"
)

// Range is a half-open interval [Low, High) of the routing-key space [0,1).
type Range struct {
	Low  float64
	High float64
}

// FullRange covers the entire key space.
func FullRange() Range { return Range{Low: 0, High: 1} }

// Contains reports whether the hashed key k falls inside the range.
func (r Range) Contains(k float64) bool { return k >= r.Low && k < r.High }

// Overlaps reports whether the two ranges intersect.
func (r Range) Overlaps(o Range) bool { return r.Low < o.High && o.Low < r.High }

// Adjacent reports whether o starts exactly where r ends or vice versa.
func (r Range) Adjacent(o Range) bool { return r.High == o.Low || o.High == r.Low }

// Width returns the length of the interval.
func (r Range) Width() float64 { return r.High - r.Low }

// IsValid reports whether the range is non-empty and within [0,1].
func (r Range) IsValid() bool {
	return r.Low >= 0 && r.High <= 1 && r.Low < r.High
}

// Split divides the range into n equal sub-ranges, preserving exact
// endpoints so that the union of the results is identical to r.
func (r Range) Split(n int) []Range {
	if n <= 1 {
		return []Range{r}
	}
	out := make([]Range, n)
	w := r.Width() / float64(n)
	lo := r.Low
	for i := 0; i < n; i++ {
		hi := r.Low + w*float64(i+1)
		if i == n-1 {
			hi = r.High // avoid floating-point drift on the last boundary
		}
		out[i] = Range{Low: lo, High: hi}
		lo = hi
	}
	return out
}

// Merge returns the union of two adjacent ranges. It returns an error if the
// ranges are not adjacent.
func Merge(a, b Range) (Range, error) {
	switch {
	case a.High == b.Low:
		return Range{Low: a.Low, High: b.High}, nil
	case b.High == a.Low:
		return Range{Low: b.Low, High: a.High}, nil
	default:
		return Range{}, fmt.Errorf("keyspace: ranges %v and %v are not adjacent", a, b)
	}
}

func (r Range) String() string { return fmt.Sprintf("[%.6f,%.6f)", r.Low, r.High) }

// HashKey maps a routing key to the unit interval [0,1). The mapping is
// stable across processes and releases: writers, readers and the controller
// must agree on it. FNV-1a alone leaves the high bits poorly mixed for
// short keys, so a splitmix64-style finalizer avalanches the hash before
// the top bits are used.
func HashKey(key string) float64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	v := mix64(h.Sum64())
	// Use the top 53 bits so the value is exactly representable as float64.
	return float64(v>>11) / float64(uint64(1)<<53)
}

// mix64 is the splitmix64 finalizer: a bijective avalanche over uint64.
func mix64(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// HashToContainer maps a fully-qualified segment name to one of n segment
// containers using a stateless uniform hash (§2.2). Both the control plane
// and the data plane compute this independently.
func HashToContainer(qualifiedSegmentName string, n int) int {
	if n <= 0 {
		panic("keyspace: container count must be positive")
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(qualifiedSegmentName))
	return int(h.Sum32() % uint32(n))
}

// Partition verifies that the given ranges exactly partition [0,1):
// sorted by Low, no gaps, no overlaps, first Low = 0, last High = 1.
// Ranges must already be sorted by Low.
func Partition(rs []Range) error {
	if len(rs) == 0 {
		return fmt.Errorf("keyspace: empty range set")
	}
	if rs[0].Low != 0 {
		return fmt.Errorf("keyspace: first range %v does not start at 0", rs[0])
	}
	for i := 0; i < len(rs)-1; i++ {
		if rs[i].High != rs[i+1].Low {
			return fmt.Errorf("keyspace: gap or overlap between %v and %v", rs[i], rs[i+1])
		}
	}
	last := rs[len(rs)-1]
	if last.High != 1 {
		return fmt.Errorf("keyspace: last range %v does not end at 1", last)
	}
	return nil
}
