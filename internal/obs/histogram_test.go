package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Min() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	for i := int64(1); i <= 100; i++ {
		h.Record(i)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("Min/Max = %d/%d", h.Min(), h.Max())
	}
	if m := h.Mean(); math.Abs(m-50.5) > 0.01 {
		t.Fatalf("Mean = %v", m)
	}
	if q := h.Quantile(0.5); q < 49 || q > 52 {
		t.Fatalf("P50 = %d", q)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// Log-bucketed quantiles must stay within ~1% of exact order
	// statistics across magnitudes.
	rng := rand.New(rand.NewSource(7))
	h := NewHistogram()
	var raw []float64
	for i := 0; i < 50_000; i++ {
		v := int64(math.Exp(rng.Float64()*13)) + 1 // 1 .. ~450k
		h.Record(v)
		raw = append(raw, float64(v))
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		got := float64(h.Quantile(q))
		want := Percentile(raw, q)
		if want == 0 {
			continue
		}
		if rel := math.Abs(got-want) / want; rel > 0.02 {
			t.Fatalf("q%.2f: got %v, want %v (rel err %.3f)", q, got, want, rel)
		}
	}
}

func TestHistogramConcurrentRecording(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	const workers, per = 8, 10_000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(int64(w*per + i + 1))
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("Count = %d, want %d", h.Count(), workers*per)
	}
	if h.Max() != workers*per {
		t.Fatalf("Max = %d", h.Max())
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(42)
	h.Reset()
	if h.Count() != 0 || h.Quantile(0.99) != 0 || h.Max() != 0 {
		t.Fatal("Reset did not clear state")
	}
	h.Record(7)
	if h.Min() != 7 {
		t.Fatalf("Min after reset = %d", h.Min())
	}
}

func TestHistogramQuantileClamping(t *testing.T) {
	h := NewHistogram()
	h.Record(10)
	if h.Quantile(-1) != h.Quantile(0) {
		t.Fatal("negative quantile not clamped")
	}
	if h.Quantile(2) < h.Quantile(1) {
		t.Fatal("quantile > 1 not clamped")
	}
}

// TestBucketRoundTripProperty: bucketValue(bucketIndex(v)) is within the
// bucket's relative error of v, and bucket indices are monotone in v.
func TestBucketRoundTripProperty(t *testing.T) {
	f := func(raw int64) bool {
		v := raw
		if v < 0 {
			v = -v
		}
		v %= int64(1) << 40
		idx := bucketIndex(v)
		bv := bucketValue(idx)
		if bv > v {
			return false
		}
		// Relative error bounded by sub-bucket resolution.
		if v >= subCount && float64(v-bv)/float64(v) > 1.0/float64(subCount)+1e-9 {
			return false
		}
		return bucketIndex(v+1) >= idx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotString(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 10; i++ {
		h.Record((time.Duration(i+1) * time.Millisecond).Microseconds())
	}
	s := h.Snapshot()
	if s.Count != 10 {
		t.Fatalf("snapshot count %d", s.Count)
	}
	if s.String() == "" {
		t.Fatal("empty snapshot string")
	}
	if s.P95 < s.P50 {
		t.Fatalf("P95 %v < P50 %v", s.P95, s.P50)
	}
}

func TestPercentileHelper(t *testing.T) {
	if Percentile(nil, 0.5) != 0 {
		t.Fatal("empty percentile should be 0")
	}
	s := []float64{5, 1, 3, 2, 4}
	if p := Percentile(s, 0.5); p != 3 {
		t.Fatalf("P50 = %v", p)
	}
	if p := Percentile(s, 1.0); p != 5 {
		t.Fatalf("P100 = %v", p)
	}
	// Input must not be mutated.
	if s[0] != 5 {
		t.Fatal("Percentile mutated its input")
	}
}

// Percentile computes the p-th percentile of a raw sample slice: the exact
// order statistic the histogram's bucketed quantiles are checked against.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx := int(math.Ceil(p*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
