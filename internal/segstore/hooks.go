package segstore

// Hooks exposes deterministic fault points inside the container pipeline for
// crash-consistency testing (see internal/faultinject). Every field is
// optional. A hook returning true requests an immediate crash: the container
// transitions to the same state as Crash() — goroutines stop without
// flushing or checkpointing, the WAL handle stays open for the next instance
// to fence — but without waiting for them, because the hook runs on one of
// the goroutines being stopped. The stage that invoked the hook aborts
// before performing its next side effect, so the crash lands exactly at the
// named point.
//
// Hook callbacks run on container-internal goroutines: they must be fast,
// must not block, and must not call back into the container.
type Hooks struct {
	// BeforeApply fires after a frame is WAL-acknowledged, before it is
	// applied to in-memory state. A crash here leaves a durable but
	// unapplied WAL tail that recovery must replay (§4.4).
	BeforeApply func(frameSeq int64) bool

	// AfterChunkCreate fires after a new LTS chunk object is created,
	// before the container records it and before any data is written to
	// it. A crash here leaves an orphan chunk in LTS that recovery must
	// adopt instead of colliding with.
	AfterChunkCreate func(segment, chunk string) bool

	// BeforeFlushRetire fires after a chunk write has been recorded in
	// segment metadata (commitChunkWrite), before the flushed bytes are
	// retired from the un-tiered queue — the mid-flush window the paper's
	// durability argument (§4.3) has to survive.
	BeforeFlushRetire func(segment, chunk string, n int64) bool

	// BeforeCheckpoint fires before a metadata checkpoint operation is
	// submitted to the WAL.
	BeforeCheckpoint func() bool

	// AfterCheckpointSnapshot fires in Checkpoint after the metadata
	// snapshot (and its coverage watermark) has been captured, before the
	// checkpoint operation is submitted to the pipeline. Unlike the crash
	// hooks it runs on the Checkpoint caller's goroutine with no container
	// lock held, so it MAY submit operations — that is its purpose: it pins
	// the window where an op lands in the WAL ahead of the checkpoint frame
	// but is missing from its snapshot.
	AfterCheckpointSnapshot func()

	// AfterWALTruncate fires after WAL ledgers are released. A crash here
	// verifies truncation never outruns tiering: everything recovery needs
	// must still be in the retained tail.
	AfterWALTruncate func() bool

	// BeforeMergeApply fires after a merge-segment operation is
	// WAL-acknowledged, just before it is applied to in-memory state (the
	// metadata flip that makes the merged bytes visible). A crash here must
	// recover to the merge fully applied — the WAL entry is durable.
	BeforeMergeApply func(target, source string) bool

	// MidMerge fires while a merge is being applied: after the target
	// segment has absorbed the source's bytes but before the source segment
	// is removed. The crash is deferred until the frame's application
	// completes, modelling a torn in-memory state that recovery must heal by
	// replaying the single atomic WAL entry.
	MidMerge func(target, source string) bool

	// AfterMergeApply fires after the merge has been applied (source gone,
	// target extended), before any acknowledgement. A crash here must
	// recover with the merge still fully applied.
	AfterMergeApply func(target, source string) bool
}
