package controller

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/keyspace"
	"github.com/pravega-go/pravega/internal/segment"
	"github.com/pravega-go/pravega/internal/segstore"
)

// fakeData is an in-memory DataPlane for controller unit tests.
type fakeData struct {
	mu       sync.Mutex
	segments map[string]*fakeSegment
	loads    []segstore.SegmentLoad
}

type fakeSegment struct {
	length      int64
	startOffset int64
	sealed      bool
	deleted     bool
}

func newFakeData() *fakeData {
	return &fakeData{segments: make(map[string]*fakeSegment)}
}

func (f *fakeData) CreateSegment(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.segments[name]; ok {
		return segstore.ErrSegmentExists
	}
	f.segments[name] = &fakeSegment{}
	return nil
}

func (f *fakeData) SealSegment(name string) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.segments[name]
	if !ok {
		return 0, segstore.ErrSegmentNotFound
	}
	s.sealed = true
	return s.length, nil
}

func (f *fakeData) TruncateSegment(name string, offset int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.segments[name]
	if !ok {
		return segstore.ErrSegmentNotFound
	}
	s.startOffset = offset
	return nil
}

func (f *fakeData) DeleteSegment(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.segments[name]; !ok {
		return segstore.ErrSegmentNotFound
	}
	delete(f.segments, name)
	return nil
}

func (f *fakeData) MergeSegment(target, source string) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	src, ok := f.segments[source]
	if !ok {
		return 0, segstore.ErrSegmentNotFound
	}
	tgt, ok := f.segments[target]
	if !ok {
		return 0, segstore.ErrSegmentNotFound
	}
	if tgt.sealed {
		return 0, segstore.ErrSegmentSealed
	}
	if !src.sealed {
		return 0, segstore.ErrSegmentNotSealed
	}
	off := tgt.length
	tgt.length += src.length - src.startOffset
	delete(f.segments, source)
	return off, nil
}

func (f *fakeData) GetInfo(name string) (segment.Info, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.segments[name]
	if !ok {
		return segment.Info{}, segstore.ErrSegmentNotFound
	}
	return segment.Info{Name: name, Length: s.length, StartOffset: s.startOffset, Sealed: s.sealed}, nil
}

func (f *fakeData) LoadReports() []segstore.SegmentLoad {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]segstore.SegmentLoad(nil), f.loads...)
}

func (f *fakeData) setLoad(name string, eps float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.loads {
		if f.loads[i].Segment == name {
			f.loads[i].EventsPerSec = eps
			return
		}
	}
	f.loads = append(f.loads, segstore.SegmentLoad{Segment: name, EventsPerSec: eps, WindowFull: true})
}

func (f *fakeData) setLength(name string, n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.segments[name]; ok {
		s.length = n
	}
}

func newCtrl(t *testing.T, data DataPlane) *Controller {
	t.Helper()
	c, err := New(Config{Data: data, ScaleCooldown: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestCreateStreamAndSegments(t *testing.T) {
	data := newFakeData()
	c := newCtrl(t, data)
	if err := c.CreateStream(StreamConfig{Scope: "s", Name: "x", InitialSegments: 4}); !errors.Is(err, ErrScopeNotFound) {
		t.Fatalf("stream without scope: %v", err)
	}
	if err := c.CreateScope("s"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateScope("s"); !errors.Is(err, ErrScopeExists) {
		t.Fatalf("duplicate scope: %v", err)
	}
	if err := c.CreateStream(StreamConfig{Scope: "s", Name: "x", InitialSegments: 4}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateStream(StreamConfig{Scope: "s", Name: "x", InitialSegments: 4}); !errors.Is(err, ErrStreamExists) {
		t.Fatalf("duplicate stream: %v", err)
	}
	segs, err := c.GetActiveSegments("s", "x")
	if err != nil || len(segs) != 4 {
		t.Fatalf("active = %d, %v", len(segs), err)
	}
	var ranges []keyspace.Range
	for _, sr := range segs {
		ranges = append(ranges, sr.KeyRange)
	}
	if err := keyspace.Partition(ranges); err != nil {
		t.Fatalf("initial ranges do not partition the key space: %v", err)
	}
	// Data plane got all four segments.
	if len(data.segments) != 4 {
		t.Fatalf("data plane has %d segments", len(data.segments))
	}
	if _, err := c.GetActiveSegments("s", "nope"); !errors.Is(err, ErrStreamNotFound) {
		t.Fatalf("missing stream: %v", err)
	}
}

func TestScaleSplitAndSuccessors(t *testing.T) {
	data := newFakeData()
	c := newCtrl(t, data)
	if err := c.CreateScope("s"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateStream(StreamConfig{Scope: "s", Name: "x", InitialSegments: 1}); err != nil {
		t.Fatal(err)
	}
	segs, _ := c.GetActiveSegments("s", "x")
	orig := segs[0]
	if err := c.Scale("s", "x", []int64{orig.ID.Number}, orig.KeyRange.Split(3)); err != nil {
		t.Fatal(err)
	}
	segs, _ = c.GetActiveSegments("s", "x")
	if len(segs) != 3 {
		t.Fatalf("after split: %d segments", len(segs))
	}
	var ranges []keyspace.Range
	for _, sr := range segs {
		ranges = append(ranges, sr.KeyRange)
		if sr.ID.Epoch() != 1 {
			t.Fatalf("successor epoch %d, want 1", sr.ID.Epoch())
		}
	}
	if err := keyspace.Partition(ranges); err != nil {
		t.Fatalf("post-scale ranges: %v", err)
	}
	succ, err := c.GetSuccessors("s", "x", orig.ID.Number)
	if err != nil || len(succ) != 3 {
		t.Fatalf("successors = %d, %v", len(succ), err)
	}
	for _, sr := range succ {
		if len(sr.Predecessors) != 1 || sr.Predecessors[0] != orig.ID.Number {
			t.Fatalf("predecessors = %v", sr.Predecessors)
		}
	}
	// The original is sealed on the data plane.
	if !data.segments[orig.ID.QualifiedName()].sealed {
		t.Fatal("predecessor not sealed on the data plane")
	}
}

func TestScaleMerge(t *testing.T) {
	data := newFakeData()
	c := newCtrl(t, data)
	if err := c.CreateScope("s"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateStream(StreamConfig{Scope: "s", Name: "m", InitialSegments: 2}); err != nil {
		t.Fatal(err)
	}
	segs, _ := c.GetActiveSegments("s", "m")
	merged, err := keyspace.Merge(segs[0].KeyRange, segs[1].KeyRange)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Scale("s", "m", []int64{segs[0].ID.Number, segs[1].ID.Number}, []keyspace.Range{merged}); err != nil {
		t.Fatal(err)
	}
	after, _ := c.GetActiveSegments("s", "m")
	if len(after) != 1 || after[0].KeyRange != keyspace.FullRange() {
		t.Fatalf("after merge: %+v", after)
	}
	// Both predecessors point to the single successor, which lists both.
	succ, _ := c.GetSuccessors("s", "m", segs[0].ID.Number)
	if len(succ) != 1 || len(succ[0].Predecessors) != 2 {
		t.Fatalf("merge successors: %+v", succ)
	}
}

func TestScaleValidation(t *testing.T) {
	data := newFakeData()
	c := newCtrl(t, data)
	if err := c.CreateScope("s"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateStream(StreamConfig{Scope: "s", Name: "v", InitialSegments: 2}); err != nil {
		t.Fatal(err)
	}
	segs, _ := c.GetActiveSegments("s", "v")
	// New ranges that do not cover the sealed range.
	if err := c.Scale("s", "v", []int64{segs[0].ID.Number}, []keyspace.Range{{Low: 0, High: 0.1}}); !errors.Is(err, ErrBadScale) {
		t.Fatalf("bad cover: %v", err)
	}
	// Unknown segment.
	if err := c.Scale("s", "v", []int64{9999}, []keyspace.Range{keyspace.FullRange()}); !errors.Is(err, ErrBadScale) {
		t.Fatalf("unknown segment: %v", err)
	}
	// Duplicate seal entry.
	if err := c.Scale("s", "v", []int64{segs[0].ID.Number, segs[0].ID.Number}, segs[0].KeyRange.Split(2)); !errors.Is(err, ErrBadScale) {
		t.Fatalf("duplicate seal: %v", err)
	}
	// Sealing an already-sealed segment.
	if err := c.Scale("s", "v", []int64{segs[0].ID.Number}, segs[0].KeyRange.Split(2)); err != nil {
		t.Fatal(err)
	}
	if err := c.Scale("s", "v", []int64{segs[0].ID.Number}, segs[0].KeyRange.Split(2)); !errors.Is(err, ErrBadScale) {
		t.Fatalf("re-seal: %v", err)
	}
}

func TestSealedStreamRejectsScale(t *testing.T) {
	data := newFakeData()
	c := newCtrl(t, data)
	if err := c.CreateScope("s"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateStream(StreamConfig{Scope: "s", Name: "sealed", InitialSegments: 1}); err != nil {
		t.Fatal(err)
	}
	segs, _ := c.GetActiveSegments("s", "sealed")
	if err := c.SealStream("s", "sealed"); err != nil {
		t.Fatal(err)
	}
	// Sealed streams expose no active segments to writers.
	if after, _ := c.GetActiveSegments("s", "sealed"); len(after) != 0 {
		t.Fatalf("sealed stream still has %d active segments", len(after))
	}
	if sealed, err := c.IsStreamSealed("s", "sealed"); err != nil || !sealed {
		t.Fatalf("IsStreamSealed = %v, %v", sealed, err)
	}
	if err := c.Scale("s", "sealed", []int64{segs[0].ID.Number}, segs[0].KeyRange.Split(2)); !errors.Is(err, ErrStreamSealed) {
		t.Fatalf("scale on sealed stream: %v", err)
	}
}

func TestDeleteStreamRequiresSeal(t *testing.T) {
	data := newFakeData()
	c := newCtrl(t, data)
	if err := c.CreateScope("s"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateStream(StreamConfig{Scope: "s", Name: "d", InitialSegments: 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteStream("s", "d"); err == nil {
		t.Fatal("delete of unsealed stream succeeded")
	}
	if err := c.SealStream("s", "d"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteStream("s", "d"); err != nil {
		t.Fatal(err)
	}
	if len(data.segments) != 0 {
		t.Fatalf("%d segments remain after stream delete", len(data.segments))
	}
	if _, err := c.GetActiveSegments("s", "d"); !errors.Is(err, ErrStreamNotFound) {
		t.Fatalf("deleted stream still visible: %v", err)
	}
}

func TestTruncateStreamDeletesPredecessors(t *testing.T) {
	data := newFakeData()
	c := newCtrl(t, data)
	if err := c.CreateScope("s"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateStream(StreamConfig{Scope: "s", Name: "tr", InitialSegments: 1}); err != nil {
		t.Fatal(err)
	}
	segs, _ := c.GetActiveSegments("s", "tr")
	orig := segs[0]
	if err := c.Scale("s", "tr", []int64{orig.ID.Number}, orig.KeyRange.Split(2)); err != nil {
		t.Fatal(err)
	}
	after, _ := c.GetActiveSegments("s", "tr")
	data.setLength(after[0].ID.QualifiedName(), 100)
	data.setLength(after[1].ID.QualifiedName(), 100)
	cut := StreamCut{after[0].ID.Number: 50, after[1].ID.Number: 60}
	if err := c.TruncateStream("s", "tr", cut); err != nil {
		t.Fatal(err)
	}
	// The sealed predecessor is deleted; the cut segments are truncated.
	if _, ok := data.segments[orig.ID.QualifiedName()]; ok {
		t.Fatal("predecessor not deleted by truncation")
	}
	if data.segments[after[0].ID.QualifiedName()].startOffset != 50 {
		t.Fatal("cut segment not truncated")
	}
	// Head segments now start at the cut.
	heads, err := c.GetHeadSegments("s", "tr")
	if err != nil || len(heads) != 2 {
		t.Fatalf("heads = %d, %v", len(heads), err)
	}
	for _, h := range heads {
		if h.StartOffset != cut[h.Segment.ID.Number] {
			t.Fatalf("head %d offset %d, want %d", h.Segment.ID.Number, h.StartOffset, cut[h.Segment.ID.Number])
		}
	}
}

func TestAutoScaleUpFromLoad(t *testing.T) {
	data := newFakeData()
	c := newCtrl(t, data)
	if err := c.CreateScope("s"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateStream(StreamConfig{
		Scope: "s", Name: "hot", InitialSegments: 1,
		Scaling: ScalingPolicy{Type: ScalingByEventRate, TargetRate: 100},
	}); err != nil {
		t.Fatal(err)
	}
	segs, _ := c.GetActiveSegments("s", "hot")
	data.setLoad(segs[0].ID.QualifiedName(), 500) // 5× the target
	time.Sleep(2 * time.Millisecond)              // pass the cooldown
	c.evaluateScaling()
	after, _ := c.GetActiveSegments("s", "hot")
	if len(after) < 2 {
		t.Fatalf("hot stream did not scale up: %d segments", len(after))
	}
}

func TestAutoScaleDownMergesColdPair(t *testing.T) {
	data := newFakeData()
	c := newCtrl(t, data)
	if err := c.CreateScope("s"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateStream(StreamConfig{
		Scope: "s", Name: "cold", InitialSegments: 4,
		Scaling: ScalingPolicy{Type: ScalingByEventRate, TargetRate: 100, MinSegments: 1},
	}); err != nil {
		t.Fatal(err)
	}
	segs, _ := c.GetActiveSegments("s", "cold")
	for _, sr := range segs {
		data.setLoad(sr.ID.QualifiedName(), 5) // far below merge threshold
	}
	time.Sleep(2 * time.Millisecond)
	c.evaluateScaling()
	after, _ := c.GetActiveSegments("s", "cold")
	if len(after) != 3 {
		t.Fatalf("cold pair not merged: %d segments", len(after))
	}
	// MinSegments floors repeated merges.
	cfg, _ := c.StreamConfigOf("s", "cold")
	if cfg.Scaling.MinSegments != 1 {
		t.Fatalf("config: %+v", cfg.Scaling)
	}
}

func TestAutoScaleRespectsCooldown(t *testing.T) {
	data := newFakeData()
	c, err := New(Config{Data: data, ScaleCooldown: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateScope("s"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateStream(StreamConfig{
		Scope: "s", Name: "cd", InitialSegments: 1,
		Scaling: ScalingPolicy{Type: ScalingByEventRate, TargetRate: 10},
	}); err != nil {
		t.Fatal(err)
	}
	segs, _ := c.GetActiveSegments("s", "cd")
	orig := segs[0]
	data.setLoad(orig.ID.QualifiedName(), 1000)
	c.evaluateScaling()
	first, _ := c.GetActiveSegments("s", "cd")
	if len(first) < 2 {
		t.Skip("first scale did not trigger (load meter timing)")
	}
	for _, sr := range first {
		data.setLoad(sr.ID.QualifiedName(), 1000)
	}
	c.evaluateScaling() // cooldown active: no further scaling
	second, _ := c.GetActiveSegments("s", "cd")
	if len(second) != len(first) {
		t.Fatalf("scaled during cooldown: %d -> %d", len(first), len(second))
	}
}

func TestRetentionBySize(t *testing.T) {
	data := newFakeData()
	c := newCtrl(t, data)
	if err := c.CreateScope("s"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateStream(StreamConfig{
		Scope: "s", Name: "ret", InitialSegments: 2,
		Retention: RetentionPolicy{Type: RetentionBySize, LimitBytes: 100},
	}); err != nil {
		t.Fatal(err)
	}
	segs, _ := c.GetActiveSegments("s", "ret")
	data.setLength(segs[0].ID.QualifiedName(), 500)
	data.setLength(segs[1].ID.QualifiedName(), 500)
	c.evaluateRetention() // records first cut
	c.evaluateRetention() // size over limit → truncate at first cut
	if data.segments[segs[0].ID.QualifiedName()].startOffset != 500 {
		t.Fatalf("retention did not truncate: start=%d", data.segments[segs[0].ID.QualifiedName()].startOffset)
	}
}

func TestRetentionByTime(t *testing.T) {
	data := newFakeData()
	c := newCtrl(t, data)
	if err := c.CreateScope("s"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateStream(StreamConfig{
		Scope: "s", Name: "rt", InitialSegments: 1,
		Retention: RetentionPolicy{Type: RetentionByTime, LimitDuration: 30 * time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	segs, _ := c.GetActiveSegments("s", "rt")
	data.setLength(segs[0].ID.QualifiedName(), 200)
	c.evaluateRetention()
	time.Sleep(50 * time.Millisecond) // the cut ages past the window
	data.setLength(segs[0].ID.QualifiedName(), 400)
	c.evaluateRetention()
	if got := data.segments[segs[0].ID.QualifiedName()].startOffset; got != 200 {
		t.Fatalf("time retention truncated at %d, want 200", got)
	}
}

func TestPersistenceAcrossControllerRestart(t *testing.T) {
	data := newFakeData()
	cs := cluster.NewStore()
	c1, err := New(Config{Data: data, Cluster: cs})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.CreateScope("s"); err != nil {
		t.Fatal(err)
	}
	if err := c1.CreateStream(StreamConfig{Scope: "s", Name: "p", InitialSegments: 2}); err != nil {
		t.Fatal(err)
	}
	segs, _ := c1.GetActiveSegments("s", "p")
	if err := c1.Scale("s", "p", []int64{segs[0].ID.Number}, segs[0].KeyRange.Split(2)); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	// A new controller instance reloads the epoch graph.
	c2, err := New(Config{Data: data, Cluster: cs})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	after, err := c2.GetActiveSegments("s", "p")
	if err != nil || len(after) != 3 {
		t.Fatalf("reloaded active = %d, %v", len(after), err)
	}
	succ, err := c2.GetSuccessors("s", "p", segs[0].ID.Number)
	if err != nil || len(succ) != 2 {
		t.Fatalf("reloaded successors = %d, %v", len(succ), err)
	}
}

func TestUpdateStreamPolicies(t *testing.T) {
	data := newFakeData()
	c := newCtrl(t, data)
	if err := c.CreateScope("s"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateStream(StreamConfig{Scope: "s", Name: "u", InitialSegments: 1}); err != nil {
		t.Fatal(err)
	}
	err := c.UpdateStreamPolicies("s", "u",
		&ScalingPolicy{Type: ScalingByThroughput, TargetRate: 1e6},
		&RetentionPolicy{Type: RetentionBySize, LimitBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := c.StreamConfigOf("s", "u")
	if cfg.Scaling.Type != ScalingByThroughput || cfg.Retention.LimitBytes != 1<<20 {
		t.Fatalf("policies not applied: %+v", cfg)
	}
	if cfg.Scaling.ScaleFactor < 2 || cfg.Scaling.MinSegments < 1 {
		t.Fatalf("defaults not re-applied: %+v", cfg.Scaling)
	}
}
