package segstore

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/pravega-go/pravega/internal/lts"
	"github.com/pravega-go/pravega/internal/obs"
	"github.com/pravega-go/pravega/internal/segment"
	"github.com/pravega-go/pravega/internal/wal"
)

// frameResult is one data frame moving through the append pipeline: the
// frame builder fills ops/done, the WAL callback stamps addr/err, and the
// in-order applier installs it into container state. The struct and its two
// slices are pooled — one frame object serves many frames over its life.
type frameResult struct {
	seq  int64
	addr wal.Address
	err  error
	ops  []*Operation
	done []*pendingOp
	// dups are retries of appends that were still pending (validated but
	// not yet applied) when the retry arrived. Their acknowledgement rides
	// this frame: the in-order applier completes them only after every
	// earlier frame — including the one carrying the original append — has
	// been applied, so the dedup ack implies the original is durable.
	dups    []*pendingOp
	bytes   int
	start   time.Time
	sampled bool // at least one op carries a trace span
}

var framePool = sync.Pool{New: func() any {
	return &frameResult{ops: make([]*Operation, 0, 64), done: make([]*pendingOp, 0, 64)}
}}

func getFrame() *frameResult { return framePool.Get().(*frameResult) }

func putFrame(f *frameResult) {
	for i := range f.ops {
		f.ops[i] = nil
	}
	for i := range f.done {
		f.done[i] = nil
	}
	for i := range f.dups {
		f.dups[i] = nil
	}
	f.ops, f.done, f.dups = f.ops[:0], f.done[:0], f.dups[:0]
	f.seq, f.addr, f.err, f.bytes, f.start, f.sampled = 0, wal.Address{}, nil, 0, time.Time{}, false
	framePool.Put(f)
}

// pendingOp is one queued operation awaiting durable completion, which cb
// receives exactly once. The struct is pooled: after complete() nobody may
// retain it.
type pendingOp struct {
	op     Operation
	result AppendResult
	cb     func(AppendResult)
	span   *obs.Span // sampled trace span, usually nil
}

var pendingOpPool = sync.Pool{New: func() any { return new(pendingOp) }}

// complete delivers the result and recycles the pendingOp. cb runs on the
// completing goroutine and must not block.
func (p *pendingOp) complete(r AppendResult) {
	cb, sp := p.cb, p.span
	*p = pendingOp{}
	pendingOpPool.Put(p)
	cb(r)
	sp.Finish()
}

// enqueue queues an operation whose completion cb receives; a container
// that is down fails it at once. The completion is routed directly from the
// in-order applier: there is no per-operation goroutine on this path.
func (c *Container) enqueue(op Operation, cb func(AppendResult)) {
	if down, err := c.isDown(); down {
		cb(AppendResult{Err: err})
		return
	}
	p := pendingOpPool.Get().(*pendingOp)
	p.op, p.cb = op, cb
	if op.Type == OpAppend {
		p.span = obs.AppendTraces().Sample(op.Segment, len(op.Data))
	}
	select {
	case c.opQueue <- p:
		mQueueDepth.Add(1)
		// The stop may have closed after isDown and the frame builder drained
		// the queue and returned before this send: fail what is left, or
		// its callbacks never fire.
		select {
		case <-c.stop:
			c.drainQueue()
		default:
		}
	case <-c.stop:
		p.complete(AppendResult{Err: ErrContainerDown})
	}
}

// submit queues an operation and waits for its durable completion.
func (c *Container) submit(op Operation) (int64, error) {
	res := make(chan AppendResult, 1)
	c.enqueue(op, func(r AppendResult) { res <- r })
	select {
	case r := <-res:
		return r.Offset, r.Err
	case <-c.stop:
		return 0, ErrContainerDown
	}
}

// CreateSegment durably registers a new segment.
func (c *Container) CreateSegment(name string) error {
	_, err := c.submit(Operation{Type: OpCreate, Segment: name})
	return err
}

// Append durably appends data to the segment, returning the assigned start
// offset. writerID/eventNum implement exactly-once semantics (§3.2):
// appends whose eventNum is not greater than the writer's recorded last
// event number are acknowledged without being applied (duplicate from a
// writer retry).
func (c *Container) Append(name string, data []byte, writerID string, eventNum int64, eventCount int32) (int64, error) {
	c.throttle()
	return c.submit(appendOp(name, data, writerID, 0, eventNum, eventCount))
}

func appendOp(name string, data []byte, writerID string, prev, eventNum int64, eventCount int32) Operation {
	return Operation{
		Type:       OpAppend,
		Segment:    name,
		Data:       data,
		WriterID:   writerID,
		EventNum:   eventNum,
		EventCount: eventCount,
		CondOffset: -1,
		Prev:       prev,
	}
}

// AppendResult is the outcome of an asynchronous append.
type AppendResult struct {
	// Offset is the assigned start offset, or -1 for a deduplicated retry.
	Offset int64
	Err    error
}

// AppendAsyncFunc enqueues an append and returns at once, throttled against
// the tiering backlog; cb fires exactly once, when the append is durable (or
// has failed). Appends enqueued from one goroutine are sequenced (and
// therefore applied) in call order, which the event writer relies on for
// per-key ordering (§3.2). cb runs on a container-internal goroutine —
// typically the in-order applier — and therefore must not block; a slow cb
// stalls the whole container's completion path.
func (c *Container) AppendAsyncFunc(name string, data []byte, writerID string, eventNum int64, eventCount int32, cb func(AppendResult)) {
	c.AppendAfterFunc(name, data, writerID, 0, eventNum, eventCount, cb)
}

// AppendAfterFunc is AppendAsyncFunc with the writer's previous event
// number on the segment (Operation.Prev).
func (c *Container) AppendAfterFunc(name string, data []byte, writerID string, prev, eventNum int64, eventCount int32, cb func(AppendResult)) {
	c.throttle()
	c.enqueue(appendOp(name, data, writerID, prev, eventNum, eventCount), cb)
}

// AppendConditional appends only if the segment's length equals
// expectedOffset, providing the optimistic-concurrency primitive the state
// synchronizer builds on (§3.3).
func (c *Container) AppendConditional(name string, data []byte, expectedOffset int64) (int64, error) {
	c.throttle()
	return c.submit(Operation{
		Type:       OpAppend,
		Segment:    name,
		Data:       data,
		CondOffset: expectedOffset,
	})
}

// Seal makes the segment read-only, returning its final length.
func (c *Container) Seal(name string) (int64, error) {
	return c.submit(Operation{Type: OpSeal, Segment: name})
}

// Truncate discards the segment prefix below offset.
func (c *Container) Truncate(name string, offset int64) error {
	_, err := c.submit(Operation{Type: OpTruncate, Segment: name, TruncateAt: offset})
	return err
}

// DeleteSegment removes the segment and, asynchronously, its LTS chunks.
func (c *Container) DeleteSegment(name string) error {
	_, err := c.submit(Operation{Type: OpDelete, Segment: name})
	return err
}

// throttle blocks the caller while the un-tiered backlog exceeds the limit:
// the integrated storage-tiering backpressure of §4.3/§5.4.
func (c *Container) throttle() {
	c.flushMu.Lock()
	var engaged time.Time
	for c.unflushedBytes > c.cfg.MaxUnflushedBytes && !c.downFlag.Load() {
		if engaged.IsZero() {
			engaged = time.Now()
			c.throttleWaits.Add(1)
			mThrottleEngaged.Inc()
		}
		c.kickFlush()
		c.flushCond.Wait()
	}
	c.flushMu.Unlock()
	if !engaged.IsZero() {
		mThrottleUs.RecordSince(engaged)
	}
}

// maxFrameSize bounds one WAL data frame (the paper's MaxFrameSize, 1 MiB).
const maxFrameSize = 1 << 20

// frameBuilderLoop implements §4.1's second batching level: it drains the
// operation queue into data frames, validating and sequencing operations in
// arrival order, and submits each frame to the WAL. When the queue runs dry
// it waits Delay = RecentLatency × (1 − AvgWriteSize/MaxFrameSize) for more
// operations before closing the frame.
func (c *Container) frameBuilderLoop() {
	defer c.wg.Done()
	defer close(c.built)
	for {
		var first *pendingOp
		select {
		case first = <-c.opQueue:
		case <-c.stop:
			c.drainQueue()
			return
		}

		fr := getFrame()
		admit := func(p *pendingOp) {
			mQueueDepth.Add(-1)
			if err := c.validateAndSequence(&p.op); err != nil {
				switch err {
				case errDuplicateAppend:
					// Writer retry of an already-applied append: acknowledge
					// as success without re-writing (§3.2). Offset -1 tells
					// the caller the data was deduplicated.
					p.complete(AppendResult{Offset: -1})
				case errDuplicatePending:
					// Retry of an append that is validated but not yet
					// applied. The ack must not outrun the original's
					// durability, so it rides this frame through the WAL
					// and in-order applier.
					p.result.Offset = -1
					fr.dups = append(fr.dups, p)
				default:
					p.complete(AppendResult{Err: err})
				}
				return
			}
			fr.bytes += len(p.op.Data) + len(p.op.Segment) + len(p.op.Checkpoint) + 32
			fr.ops = append(fr.ops, &p.op)
			fr.done = append(fr.done, p)
			if p.span != nil {
				p.span.MarkEnqueued()
				fr.sampled = true
			}
		}
		admit(first)

		// The adaptive delay is armed at most once per frame: operations
		// that arrive while waiting are admitted but do not extend the
		// window. Re-arming on every arrival would let a steady trickle —
		// in particular conditional-append retries that fail validation
		// against an op captive in this very frame and so add no bytes —
		// hold the frame open indefinitely, starving the ops already in it.
		var timer *time.Timer
	fill:
		for fr.bytes < maxFrameSize {
			select {
			case p := <-c.opQueue:
				admit(p)
			default:
				// Queue dry: adaptive wait for more operations (§4.1).
				if timer == nil {
					delay := c.frameDelay()
					if delay <= 0 {
						break fill
					}
					timer = time.NewTimer(delay)
				}
				select {
				case p := <-c.opQueue:
					admit(p)
				case <-timer.C:
					timer = nil
					break fill
				case <-c.stop:
					break fill
				}
			}
		}
		if timer != nil {
			timer.Stop()
		}

		if len(fr.ops) == 0 && len(fr.dups) == 0 {
			putFrame(fr)
			continue
		}
		// A frame holding only pending-duplicate acks still goes through the
		// WAL (as an empty frame) so those acks stay ordered after the
		// frames carrying the original appends.
		c.submitFrame(fr)
	}
}

func (c *Container) drainQueue() {
	for {
		select {
		case p := <-c.opQueue:
			mQueueDepth.Add(-1)
			p.complete(AppendResult{Err: ErrContainerDown})
		default:
			return
		}
	}
}

// frameDelay computes the paper's adaptive batching delay.
func (c *Container) frameDelay() time.Duration {
	c.statMu.Lock()
	lat := c.recentLatency
	avg := c.avgWriteSize
	c.statMu.Unlock()
	frac := 1 - avg/maxFrameSize
	if frac < 0 {
		frac = 0
	}
	d := time.Duration(float64(lat) * frac)
	if d > c.cfg.MaxFrameDelay {
		d = c.cfg.MaxFrameDelay
	}
	return d
}

// validateAndSequence checks an operation against current state and, for
// appends, assigns its offset. Runs in queue order, so later operations see
// earlier ones' pending effects.
func (c *Container) validateAndSequence(op *Operation) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down {
		return c.downErr
	}
	s, exists := c.segments[op.Segment]
	if exists && s.pendingDelete && op.Type != OpCreate {
		exists = false
	}
	switch op.Type {
	case OpCreate:
		if exists {
			return fmt.Errorf("%w: %s", ErrSegmentExists, op.Segment)
		}
		return nil
	case OpCheckpoint:
		return nil
	case OpAppend:
		if !exists {
			return fmt.Errorf("%w: %s", ErrSegmentNotFound, op.Segment)
		}
		if s.sealed || s.pendingSeal {
			return fmt.Errorf("%w: %s", ErrSegmentSealed, op.Segment)
		}
		if op.WriterID != "" {
			last, known := s.attributes[op.WriterID]
			if p, ok := s.attrPending[op.WriterID]; ok && (!known || p > last) {
				last, known = p, true
			}
			if known && op.EventNum <= last {
				// Duplicate from a writer retry: ack at the recorded state
				// without re-appending (§3.2). If the original is already
				// applied the ack is immediate; if it is still in flight the
				// ack must ride the current frame (see frameResult.dups).
				if applied, ok := s.attributes[op.WriterID]; ok && op.EventNum <= applied {
					return errDuplicateAppend
				}
				return errDuplicatePending
			}
			if !known {
				last = -1
			}
			if op.Prev != 0 && op.Prev != last {
				return fmt.Errorf("%w: %s: writer %s at %d, append follows %d", ErrOutOfOrder, op.Segment, op.WriterID, last, op.Prev)
			}
			s.attrPending[op.WriterID] = op.EventNum
		}
		if op.CondOffset >= 0 && op.CondOffset != s.pendingLength {
			return fmt.Errorf("%w: expected %d, length %d", ErrConditionalFailed, op.CondOffset, s.pendingLength)
		}
		op.Offset = s.pendingLength
		s.pendingLength += int64(len(op.Data))
		return nil
	case OpSeal:
		if !exists {
			return fmt.Errorf("%w: %s", ErrSegmentNotFound, op.Segment)
		}
		s.pendingSeal = true
		return nil
	case OpTruncate:
		if !exists {
			return fmt.Errorf("%w: %s", ErrSegmentNotFound, op.Segment)
		}
		if op.TruncateAt > s.pendingLength {
			return fmt.Errorf("segstore: truncate offset %d beyond length %d", op.TruncateAt, s.pendingLength)
		}
		return nil
	case OpDelete:
		if !exists {
			return fmt.Errorf("%w: %s", ErrSegmentNotFound, op.Segment)
		}
		s.pendingDelete = true
		return nil
	case OpMergeSegment:
		if !exists {
			return fmt.Errorf("%w: %s", ErrSegmentNotFound, op.Segment)
		}
		if s.sealed || s.pendingSeal {
			return fmt.Errorf("%w: %s", ErrSegmentSealed, op.Segment)
		}
		if op.Source == op.Segment {
			return fmt.Errorf("segstore: cannot merge %s into itself", op.Segment)
		}
		src, ok := c.segments[op.Source]
		if !ok || src.pendingDelete {
			return fmt.Errorf("%w: %s", ErrSegmentNotFound, op.Source)
		}
		if !src.sealed {
			return fmt.Errorf("%w: merge source %s", ErrSegmentNotSealed, op.Source)
		}
		if src.pendingMerge {
			return fmt.Errorf("%w: %s (merge in flight)", ErrSegmentNotFound, op.Source)
		}
		if have := src.length - src.startOffset; have != int64(len(op.Data)) {
			return fmt.Errorf("segstore: merge source %s content mismatch (op carries %d bytes, source holds %d)",
				op.Source, len(op.Data), have)
		}
		src.pendingMerge = true
		op.Offset = s.pendingLength
		s.pendingLength += int64(len(op.Data))
		return nil
	default:
		return fmt.Errorf("segstore: unknown operation type %d", op.Type)
	}
}

// errDuplicateAppend is an internal sentinel: the append is a writer retry
// already reflected in segment state; acknowledge without applying.
var errDuplicateAppend = fmt.Errorf("segstore: duplicate append")

// errDuplicatePending marks a retry whose original append is sequenced but
// not yet durably applied: the dedup ack must be deferred until the applier
// reaches the current frame.
var errDuplicatePending = fmt.Errorf("segstore: duplicate append (pending)")

// submitFrame writes one data frame to the WAL as parts: the ops' headers
// and, by reference, their payloads (marshalFrame). Only the frame builder
// calls this, so the sequence counter needs no lock; the applier reads it
// atomically to know when it has drained everything.
func (c *Container) submitFrame(fr *frameResult) {
	fr.seq = c.framesSubmitted.Load()
	c.framesSubmitted.Store(fr.seq + 1)

	mFrameOps.Record(int64(len(fr.ops)))
	mFrameBytes.Record(int64(fr.bytes))
	parts := marshalFrame(fr.ops)
	fr.start = time.Now()
	c.log.AppendPartsAsync(parts, func(addr wal.Address, err error) {
		c.updateBatchStats(time.Since(fr.start), fr.bytes)
		if fr.sampled {
			for _, p := range fr.done {
				p.span.MarkWALAck()
			}
		}
		fr.addr, fr.err = addr, err
		c.enqueueCompleted(fr)
	})
}

// updateBatchStats maintains the EWMA latency and write-size statistics
// that feed the adaptive delay formula.
func (c *Container) updateBatchStats(lat time.Duration, size int) {
	const alpha = 0.2
	c.statMu.Lock()
	c.recentLatency = time.Duration(float64(c.recentLatency)*(1-alpha) + float64(lat)*alpha)
	c.avgWriteSize = c.avgWriteSize*(1-alpha) + float64(size)*alpha
	c.statMu.Unlock()
}

// enqueueCompleted hands a WAL-acknowledged frame to the applier. It is the
// entire WAL-callback footprint of the completion path: append under a
// short lock, then a non-blocking wake — the callback never applies state,
// takes c.mu, or blocks, so BookKeeper ack goroutines are never held up.
func (c *Container) enqueueCompleted(fr *frameResult) {
	c.applyMu.Lock()
	c.applyQ = append(c.applyQ, fr)
	c.applyMu.Unlock()
	select {
	case c.applyKick <- struct{}{}:
	default:
	}
}

// applierLoop is the container's single in-order applier: it collects
// WAL-acknowledged frames (which complete out of order across ledger
// rollovers), reorders them by sequence, and applies each exactly once, in
// order, on this one goroutine. Centralizing application here (rather than
// running it on whichever WAL callback happened to arrive) removes lock
// contention from the ack path and makes out-of-order application
// structurally impossible. On shutdown the applier keeps draining until
// every submitted frame has been applied, so no caller is left waiting.
func (c *Container) applierLoop() {
	defer c.wg.Done()
	pending := make(map[int64]*frameResult)
	var next int64
	var batch []*frameResult
	builtCh := c.built
	stopping := false
	for {
		if stopping && next >= c.framesSubmitted.Load() {
			return
		}
		select {
		case <-c.applyKick:
		case <-builtCh:
			// The frame builder has returned, so framesSubmitted is frozen
			// and the check above terminates the drain. (Waiting for the
			// stop instead let the applier return while the builder was
			// still submitting its last frame, whose callers then never
			// heard back.) Nil the channel so the select blocks on applyKick
			// only.
			stopping = true
			builtCh = nil
			continue
		}
		c.applyMu.Lock()
		batch, c.applyQ = c.applyQ, batch[:0]
		c.applyMu.Unlock()
		for _, fr := range batch {
			pending[fr.seq] = fr
		}
		for {
			fr, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			c.applyFrame(fr)
			putFrame(fr)
		}
	}
}

// applyFrame installs a durable frame into memory state and acknowledges
// its operations. It runs exclusively on the applier goroutine, takes c.mu
// once for the whole frame, and accumulates counter and backlog updates
// frame-wide instead of per operation.
func (c *Container) applyFrame(f *frameResult) {
	if f.err != nil {
		// WAL failure is fatal for the container (§4.4).
		c.failAll(fmt.Errorf("segstore: WAL append failed: %w", f.err))
		failFrameOps(f, f.err)
		return
	}
	if c.crashed.Load() {
		// Crashed mid-drain: the frame is durable in the WAL but must not
		// be applied — recovery will replay it. Callers get an ambiguous
		// failure, exactly as if the process had died before acking.
		failFrameOps(f, ErrContainerDown)
		return
	}
	if h := c.cfg.Hooks; h != nil && h.BeforeApply != nil && h.BeforeApply(f.seq) {
		c.requestCrash()
		failFrameOps(f, ErrContainerDown)
		return
	}
	// Merge crash hooks run outside c.mu: requestCrash re-enters the lock
	// via markDown. BeforeMergeApply fires with the WAL entry durable but
	// nothing applied; recovery must replay the whole merge.
	if h := c.cfg.Hooks; h != nil && h.BeforeMergeApply != nil {
		for _, op := range f.ops {
			if op.Type == OpMergeSegment && h.BeforeMergeApply(op.Segment, op.Source) {
				c.requestCrash()
				failFrameOps(f, ErrContainerDown)
				return
			}
		}
	}
	var queued, released int64
	torn := false
	c.mu.Lock()
	for i, op := range f.ops {
		if op.Type == OpCheckpoint {
			c.flushMu.Lock()
			c.lastCheckpoint = f.addr
			c.hasCheckpoint = true
			c.cpCover = op.cpCover
			c.cpCoverOK = op.cpCoverOK
			c.flushMu.Unlock()
			c.checkpointsTaken.Add(1)
			continue
		}
		var r applied
		r, torn = c.applyOpLocked(op, f.addr, c.cfg.Hooks)
		f.done[i].result.Offset = r.offset
		queued += r.queued
		released += r.released
		if torn {
			// The MidMerge crash is deferred past the unlock (markDown
			// takes c.mu); remaining frame ops are not applied — recovery
			// replays the durable frame in full.
			break
		}
	}
	if !torn {
		c.lastApplied = f.addr
		c.hasLastApplied = true
	}
	if len(f.ops) > 1 || len(f.ops) == 1 && f.ops[0].Type != OpCheckpoint {
		c.metaChanges++
	}
	c.mu.Unlock()

	if torn {
		c.requestCrash()
		failFrameOps(f, ErrContainerDown)
		return
	}
	if h := c.cfg.Hooks; h != nil && h.AfterMergeApply != nil {
		for _, op := range f.ops {
			if op.Type == OpMergeSegment && h.AfterMergeApply(op.Segment, op.Source) {
				c.requestCrash()
				failFrameOps(f, ErrContainerDown)
				return
			}
		}
	}

	c.framesWritten.Add(1)
	c.opsProcessed.Add(int64(len(f.ops)))
	mFramesApplied.Inc()
	mOpsApplied.Add(int64(len(f.ops)))
	mApplyUs.RecordSince(f.start)
	if f.sampled {
		for _, p := range f.done {
			p.span.MarkApplied()
		}
	}
	if queued > 0 {
		c.bytesWritten.Add(queued)
		mAppendBytes.Add(queued)
	}
	// A kicked round flushes only segments whose backlog has reached
	// FlushSizeBytes, and no segment's can have while the container's is
	// below it; small backlogs (a sealed segment's remainder too) go with
	// the tick. Below the threshold a kick would only put a second thread on
	// the container lock beside the acknowledgements of every frame.
	if c.settleBacklog(queued, released) {
		c.kickFlush()
	}
	for _, p := range f.done {
		p.complete(p.result)
	}
	// Pending-duplicate acks complete last: every frame up to and including
	// this one is applied, so the originals they deduplicated against are
	// durable.
	for _, p := range f.dups {
		p.complete(p.result)
	}
}

// failFrameOps completes every operation of a frame with err.
func failFrameOps(f *frameResult, err error) {
	for _, p := range f.done {
		p.complete(AppendResult{Err: err})
	}
	for _, p := range f.dups {
		p.complete(AppendResult{Err: err})
	}
}

// MergeSegment atomically appends the sealed source segment's entire
// content to the target and deletes the source — the commit step of stream
// transactions (§3.2). The source's bytes are read up front and carried in
// a single WAL operation, so the merge is crash-atomic: recovery either
// replays the whole transition or never sees it, and readers observe the
// merged bytes as ordinary contiguous target bytes (tiered like any
// others). It returns the target offset at which the merged bytes begin.
//
// A retry after an ambiguous failure that finds the source already gone
// (ErrSegmentNotFound) should treat the merge as applied: the source is
// deleted only by the merge itself.
func (c *Container) MergeSegment(target, source string) (int64, error) {
	info, err := c.GetInfo(source)
	if err != nil {
		return 0, err
	}
	if !info.Sealed {
		return 0, fmt.Errorf("%w: merge source %s", ErrSegmentNotSealed, source)
	}
	data := make([]byte, 0, info.Length-info.StartOffset)
	for off := info.StartOffset; off < info.Length; {
		res, err := c.Read(source, off, int(info.Length-off), 0)
		if err != nil {
			return 0, err
		}
		if len(res.Data) == 0 {
			return 0, fmt.Errorf("segstore: merge read of %s stalled at offset %d", source, off)
		}
		data = append(data, res.Data...)
		off += int64(len(res.Data))
	}
	c.throttle()
	return c.submit(Operation{
		Type:       OpMergeSegment,
		Segment:    target,
		Source:     source,
		Data:       data,
		CondOffset: -1,
	})
}

func (c *Container) deleteChunks(chunks []chunkMeta) {
	defer c.wg.Done()
	for _, ch := range chunks {
		if c.crashed.Load() {
			return
		}
		if err := c.cfg.LTS.Delete(ch.Name); err != nil && !errors.Is(err, lts.ErrNoChunk) {
			mLTSChunkDeleteFailures.Inc()
		}
	}
}

// WriterState returns the last event number recorded for the writer on the
// segment, or -1 when unknown. Writers call this on reconnection to resume
// from the correct event (§3.2).
func (c *Container) WriterState(name, writerID string) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.segments[name]
	if !ok {
		return -1, fmt.Errorf("%w: %s", ErrSegmentNotFound, name)
	}
	if last, ok := s.attributes[writerID]; ok {
		return last, nil
	}
	return -1, nil
}

// GetInfo returns the segment's current metadata.
func (c *Container) GetInfo(name string) (segment.Info, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.segments[name]
	if !ok {
		return segment.Info{}, fmt.Errorf("%w: %s", ErrSegmentNotFound, name)
	}
	return segment.Info{
		Name:          name,
		Length:        s.length,
		StartOffset:   s.startOffset,
		Sealed:        s.sealed,
		StorageLength: s.storageLength,
	}, nil
}
