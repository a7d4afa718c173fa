package faultinject

import (
	"sync"
	"sync/atomic"

	"github.com/pravega-go/pravega/internal/segstore"
)

// Point names one scripted crash location between pipeline stages (the
// segstore.Hooks seams).
type Point string

// Crash points, ordered along the write path.
const (
	// PointBeforeApply crashes after WAL acknowledgement, before the frame
	// is applied: durable-but-unapplied tail, recovery must replay it.
	PointBeforeApply Point = "before-apply"
	// PointAfterChunkCreate crashes after an LTS chunk object exists but
	// before any metadata about it is durable: orphan chunk, recovery (or
	// the next flush) must adopt it rather than collide.
	PointAfterChunkCreate Point = "after-chunk-create"
	// PointBeforeFlushRetire crashes between commitChunkWrite and the
	// retirement of flushed bytes: the mid-flush window where metadata is
	// ahead of the un-tiered queue.
	PointBeforeFlushRetire Point = "before-flush-retire"
	// PointBeforeCheckpoint crashes just before a metadata checkpoint is
	// submitted to the WAL.
	PointBeforeCheckpoint Point = "before-checkpoint"
	// PointAfterWALTruncate crashes right after WAL ledgers are released:
	// everything recovery needs must still be in the retained tail.
	PointAfterWALTruncate Point = "after-wal-truncate"
	// PointBeforeMergeApply crashes with a transaction merge durable in the
	// WAL but not yet applied: recovery must replay it, so the commit is
	// observed in full.
	PointBeforeMergeApply Point = "before-merge-apply"
	// PointMidMerge crashes in the torn middle of a merge application —
	// target extended, source still present in memory. The single atomic WAL
	// entry must heal this to fully-merged on recovery.
	PointMidMerge Point = "mid-merge"
	// PointAfterMergeApply crashes after the merge applied (metadata flip
	// done), before acknowledgement: recovery must keep it applied and the
	// retry must recognise the vanished source as success.
	PointAfterMergeApply Point = "after-merge-apply"
)

// AllPoints lists every crash point (schedule generation).
var AllPoints = []Point{
	PointBeforeApply,
	PointAfterChunkCreate,
	PointBeforeFlushRetire,
	PointBeforeCheckpoint,
	PointAfterWALTruncate,
	PointBeforeMergeApply,
	PointMidMerge,
	PointAfterMergeApply,
}

// MergePoints lists the crash points around the transaction commit-by-merge
// (the atomicity suite iterates them).
var MergePoints = []Point{
	PointBeforeMergeApply,
	PointMidMerge,
	PointAfterMergeApply,
}

// CrashPlan crashes the container at the Nth hit (1-based; 0 means first)
// of Point. A plan fires at most once.
type CrashPlan struct {
	Point Point
	Nth   int64

	hits  atomic.Int64
	fired atomic.Bool
}

// Fired reports whether the plan's crash has been triggered.
func (p *CrashPlan) Fired() bool { return p.fired.Load() }

// hit records one arrival at point and decides whether to crash.
func (p *CrashPlan) hit(point Point) bool {
	if p == nil || p.Point != point || p.fired.Load() {
		return false
	}
	n := p.hits.Add(1)
	want := p.Nth
	if want <= 0 {
		want = 1
	}
	if n != want {
		return false
	}
	if !p.fired.CompareAndSwap(false, true) {
		return false
	}
	mCrashesInjected.Inc()
	return true
}

// Injector owns the currently armed CrashPlan and adapts it to
// segstore.Hooks. The hooks hold a reference to the Injector — not to any
// particular plan — so one Injector wired into a cluster's container
// template keeps working across crash/restart cycles: arm a new plan, crash
// the container, restart it, arm the next plan.
type Injector struct {
	mu   sync.Mutex
	plan *CrashPlan
}

// NewInjector returns an Injector with no plan armed.
func NewInjector() *Injector { return &Injector{} }

// Arm installs the plan to fire next (replacing any previous one).
func (in *Injector) Arm(p *CrashPlan) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.plan = p
}

// Disarm removes the current plan.
func (in *Injector) Disarm() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.plan = nil
}

// Armed returns the current plan (nil if none).
func (in *Injector) Armed() *CrashPlan {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.plan
}

func (in *Injector) hit(point Point) bool {
	return in.Armed().hit(point)
}

// Hooks returns the segstore fault hooks backed by this Injector. Install
// them in ContainerConfig.Hooks.
func (in *Injector) Hooks() *segstore.Hooks {
	return &segstore.Hooks{
		BeforeApply:       func(int64) bool { return in.hit(PointBeforeApply) },
		AfterChunkCreate:  func(string, string) bool { return in.hit(PointAfterChunkCreate) },
		BeforeFlushRetire: func(string, string, int64) bool { return in.hit(PointBeforeFlushRetire) },
		BeforeCheckpoint:  func() bool { return in.hit(PointBeforeCheckpoint) },
		AfterWALTruncate:  func() bool { return in.hit(PointAfterWALTruncate) },
		BeforeMergeApply:  func(string, string) bool { return in.hit(PointBeforeMergeApply) },
		MidMerge:          func(string, string) bool { return in.hit(PointMidMerge) },
		AfterMergeApply:   func(string, string) bool { return in.hit(PointAfterMergeApply) },
	}
}
