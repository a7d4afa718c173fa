package pravega

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/pravega-go/pravega/internal/client"
	"github.com/pravega-go/pravega/internal/controller"
	"github.com/pravega-go/pravega/internal/keyspace"
	"github.com/pravega-go/pravega/internal/segstore"
)

// WriterConfig parameterizes an EventWriter.
type WriterConfig struct {
	// Scope and Stream name the target stream.
	Scope  string
	Stream string
	// MaxInFlight bounds pipelined appends per segment (default 2: one
	// batch on the wire while the next fills — the paper's "batch data is
	// a mix of data in-flight and data collected at the server").
	MaxInFlight int
	// ID identifies the writer for exactly-once deduplication; generated
	// when empty.
	ID string
}

// maxBatchSize bounds one append batch in bytes (the paper's MaxBatchSize,
// 1 MiB, §4.1).
const maxBatchSize = 1 << 20

func (c *WriterConfig) defaults() {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2
	}
	if c.ID == "" {
		c.ID = randomID("writer-")
	}
}

// randomID returns prefix plus a 64-bit crypto/rand hex suffix. Writer ids
// seed server-side exactly-once dedup state, so two writers must never
// share one — a clock-derived suffix collides when writers are created
// concurrently (or on coarse clocks), random suffixes cannot.
func randomID(prefix string) string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("pravega: reading random id: %v", err))
	}
	return prefix + hex.EncodeToString(b[:])
}

// WriteFuture resolves when an event is durably acknowledged.
type WriteFuture struct {
	ch  chan struct{}
	err error
}

func newFuture() *WriteFuture { return &WriteFuture{ch: make(chan struct{})} }

func (f *WriteFuture) complete(err error) {
	f.err = err
	close(f.ch)
}

// Wait blocks for the acknowledgement or until ctx is done, whichever
// comes first. On cancellation it returns ctx.Err(); the write itself is
// not revoked — the future still resolves and may be waited on again.
func (f *WriteFuture) Wait(ctx context.Context) error {
	select {
	case <-f.ch:
		return f.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Done returns a channel closed on acknowledgement.
func (f *WriteFuture) Done() <-chan struct{} { return f.ch }

// Err returns the result; only valid after Done.
func (f *WriteFuture) Err() error { return f.err }

// pendingEvent is one event retained until acknowledged (needed to re-route
// on segment seal, §3.2).
type pendingEvent struct {
	key    string
	hash   float64
	data   []byte
	future *WriteFuture
	seq    int64
}

// EventWriter appends events to a stream with per-routing-key order and
// exactly-once semantics. Batching is dynamic and self-clocking (§4.1):
// when a segment has no append in flight, events ship immediately (no
// batching latency at low rates); while appends are in flight, arriving
// events accumulate into the next batch, so batch size automatically grows
// to ingest-rate × round-trip-time at high rates — the paper's
// min(MaxBatchSize, rate × RTT/2) estimate emerges without tuning knobs.
type EventWriter struct {
	cfg  WriterConfig
	sys  *System
	conn client.DataTransport

	mu      sync.Mutex
	route   routeTable
	writers map[int64]*segmentWriter
	stale   int // registered writers whose segment left the active route
	closed  bool
	seq     int64 // the last event number given out
}

// NewWriter creates an event writer for a stream.
func (s *System) NewWriter(cfg WriterConfig) (*EventWriter, error) {
	cfg.defaults()
	segs, err := s.client.GetActiveSegments(cfg.Scope, cfg.Stream)
	if err != nil {
		return nil, convertErr(err)
	}
	w := &EventWriter{
		cfg:     cfg,
		sys:     s,
		conn:    s.data,
		route:   routeTable{segments: segs},
		writers: make(map[int64]*segmentWriter),
	}
	return w, nil
}

// ID returns the writer id used for deduplication.
func (w *EventWriter) ID() string { return w.cfg.ID }

// WriteEvent routes an event by key and returns a future resolved when the
// event is durable. Events with the same routing key are appended — and
// will be read — in WriteEvent order (§3.2).
func (w *EventWriter) WriteEvent(routingKey string, event []byte) *WriteFuture {
	f := newFuture()
	pe := pendingEvent{
		key:    routingKey,
		hash:   keyspace.HashKey(routingKey),
		data:   event,
		future: f,
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		f.complete(ErrWriterClosed)
		return f
	}
	w.enqueueLocked(pe)
	w.mu.Unlock()
	mClientEventsWritten.Inc()
	return f
}

// enqueueLocked numbers one pending event and routes it to its segment
// writer. Caller holds w.mu. Numbering here, on every (re-)enqueue, keeps
// numbers rising along each segment's sends: the server acks an append
// numbered at or below the writer's attribute as a duplicate (§3.2), and a
// merge re-routes events from two predecessors into one successor in
// whichever order their seals resolve. A re-routed event was never
// applied (a sealed segment rejects at validation), so a new number is safe.
func (w *EventWriter) enqueueLocked(pe pendingEvent) {
	w.seq++
	pe.seq = w.seq
	seg, err := w.route.segmentFor(pe.hash)
	if err != nil {
		pe.future.complete(err)
		return
	}
	// A sealed predecessor that is still registered may hold earlier events
	// of this key (in flight, batched or awaiting re-route) although the
	// route table already names its successor: a merge refreshes the table
	// when the FIRST predecessor resolves. Queue behind it (§3.3).
	if w.stale > 0 {
		for _, sw := range w.writers {
			if sw.seg.ID.Number != seg.ID.Number && sw.seg.KeyRange.Contains(pe.hash) {
				sw.add(pe)
				return
			}
		}
	}
	sw, ok := w.writers[seg.ID.Number]
	if !ok {
		sw = newSegmentWriter(w, seg)
		w.writers[seg.ID.Number] = sw
	}
	sw.add(pe)
}

// Flush waits until every previously written event is acknowledged. A
// segment seal during the flush re-routes events to successor segments, so
// the flush loops until a full pass over all segment writers finds nothing
// open, in flight, parked or awaiting re-route. It returns ctx.Err() as soon
// as ctx is done; cancellation abandons only the wait — in-flight events
// stay in flight and their futures still resolve normally.
func (w *EventWriter) Flush(ctx context.Context) error {
	// On cancellation, wake every flusher parked on a segment writer's
	// condition variable. Broadcasting under each writer's lock pairs with
	// the wait loop's ctx check below, so a wakeup cannot be lost between
	// the check and the Wait.
	stop := context.AfterFunc(ctx, func() {
		w.mu.Lock()
		sws := make([]*segmentWriter, 0, len(w.writers))
		for _, sw := range w.writers {
			sws = append(sws, sw)
		}
		w.mu.Unlock()
		for _, sw := range sws {
			sw.mu.Lock()
			sw.flushCond.Broadcast()
			sw.mu.Unlock()
		}
	})
	defer stop()
	for {
		w.mu.Lock()
		sws := make([]*segmentWriter, 0, len(w.writers))
		for _, sw := range w.writers {
			sws = append(sws, sw)
		}
		w.mu.Unlock()

		busy := false
		for _, sw := range sws {
			sw.mu.Lock()
			sw.trySendLocked()
			for sw.inflight > 0 && ctx.Err() == nil {
				sw.flushCond.Wait()
			}
			if len(sw.batch) > 0 || len(sw.held) > 0 || len(sw.redirect) > 0 ||
				len(sw.retry) > 0 || sw.recovering {
				busy = true
			}
			sw.mu.Unlock()
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if !busy {
			// Confirm no new segment writers appeared (seal resolution
			// re-routes events into fresh writers).
			w.mu.Lock()
			stable := len(w.writers) == len(sws)
			if stable {
				for _, sw := range sws {
					if w.writers[sw.seg.ID.Number] != sw {
						stable = false
						break
					}
				}
			}
			w.mu.Unlock()
			if stable {
				return nil
			}
		}
		if err := sleepCtx(ctx, time.Millisecond); err != nil {
			return err
		}
	}
}

// sleepCtx sleeps d or until ctx is done, returning ctx.Err() in the
// latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// Close flushes and releases the writer.
func (w *EventWriter) Close() error {
	err := w.Flush(context.Background())
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	return err
}

// segmentWriter batches and pipelines appends to one segment.
type segmentWriter struct {
	w   *EventWriter
	seg controller.SegmentWithRange

	mu         sync.Mutex
	batch      []pendingEvent
	batchSize  int
	inflight   int
	sealed     bool
	held       []pendingEvent // events parked while a seal resolves
	redirect   []pendingEvent // failed in-flight events awaiting re-route
	retry      []batchRec     // batches lost to a disconnect, awaiting replay
	recovering bool           // a recover() goroutine is active
	last       int64          // last event number sent (-1: none), the next batch's prev
	// buf is the encode buffer every batch reuses: AppendAfter does not
	// keep a batch's bytes once it returns (client.DataTransport).
	buf       []byte
	flushCond *sync.Cond
}

// batchRec is one sent batch retained for replay across a transport
// disconnect. Replay must resend the original batches verbatim — never
// merged or split — because the server deduplicates at batch granularity:
// its writer attribute records the last event number of the last applied
// batch (§3.2).
type batchRec []pendingEvent

func (b batchRec) lastNum() int64 { return b[len(b)-1].seq }

func newSegmentWriter(w *EventWriter, seg controller.SegmentWithRange) *segmentWriter {
	sw := &segmentWriter{w: w, seg: seg, last: -1}
	sw.flushCond = sync.NewCond(&sw.mu)
	return sw
}

// add appends an event to the open batch and ships it as soon as an
// in-flight slot is free — the self-clocking dynamic batching of §4.1.
func (sw *segmentWriter) add(pe pendingEvent) {
	sw.mu.Lock()
	if sw.sealed {
		// A seal is resolving; park the event to preserve per-key order
		// across the re-route (§3.2).
		sw.held = append(sw.held, pe)
		sw.mu.Unlock()
		return
	}
	sw.batch = append(sw.batch, pe)
	sw.batchSize += eventFrameSize(pe.data)
	sw.trySendLocked()
	sw.mu.Unlock()
}

// trySendLocked ships the open batch when a pipeline slot is available.
// Oversized batches ship on extra slots rather than stalling. Caller holds
// sw.mu.
func (sw *segmentWriter) trySendLocked() {
	// While a disconnect is being recovered, nothing new ships: replayed
	// batches must reach the server before younger events, or per-key order
	// breaks.
	if sw.sealed || sw.recovering || len(sw.retry) > 0 || len(sw.batch) == 0 {
		return
	}
	limit := sw.w.cfg.MaxInFlight
	if sw.batchSize >= maxBatchSize {
		limit *= 4 // burst relief at the batch-size bound
	}
	if sw.inflight >= limit {
		return
	}
	mClientBatchFillPct.Record(int64(sw.batchSize) * 100 / maxBatchSize)
	events := sw.batch
	sw.batch = nil
	sw.batchSize = 0
	sw.inflight++
	sw.sendBatch(events, sw.last)
}

// transientAppendErr reports append/handshake failures the writer resolves
// by parking the batch and replaying through the WriterState handshake:
// connection loss, or a container failover/rebalance in progress (routed to
// the wrong host, container shut down mid-append, zombie WAL fenced by the
// new owner), or a batch that overtook such a one (out of order). Replay is
// safe for all of them because the server-side (writer, eventNum) dedup
// discards anything that was in fact applied.
func transientAppendErr(err error) bool { return errors.Is(err, client.ErrRetryable) }

// sendBatch serializes and ships one batch that follows event number prev
// on the segment (caller holds sw.mu). The container applies it only after
// prev, so a batch never overtakes a predecessor that failed on the way.
// The batch is encoded into sw.buf, the one copy of its events the writer
// makes; a replay encodes it again from events.
func (sw *segmentWriter) sendBatch(events []pendingEvent, prev int64) {
	buf := sw.buf[:0]
	for _, pe := range events {
		buf = appendEventFrame(buf, pe.data)
	}
	sw.buf = buf
	lastNum := events[len(events)-1].seq
	sw.last = lastNum
	start := time.Now()
	sw.w.conn.AppendAfter(sw.seg.ID.QualifiedName(), buf, sw.w.cfg.ID, prev, lastNum, int32(len(events)), func(r segstore.AppendResult) {
		mClientRTTUs.RecordSince(start)
		sw.onBatchResult(events, r)
	})
}

// onBatchResult handles one batch acknowledgement.
func (sw *segmentWriter) onBatchResult(events []pendingEvent, r segstore.AppendResult) {
	sealed := errors.Is(r.Err, segstore.ErrSegmentSealed)
	retry := !sealed && transientAppendErr(r.Err)
	if !sealed && !retry {
		err := convertErr(r.Err)
		for _, pe := range events {
			pe.future.complete(err)
		}
	}
	sw.mu.Lock()
	sw.inflight--
	switch {
	case sealed:
		sw.sealed = true
		sw.redirect = append(sw.redirect, events...)
	case retry:
		// The transport lost its connection, or the container moved under
		// a failover/rebalance (wrong host, container down, fenced zombie
		// WAL), with this batch in flight: the server may or may not have
		// applied it. Park the batch for replay; once every in-flight batch
		// has resolved, recover() re-establishes the writer's position via
		// WriterState and replays (or acks) each parked batch in order —
		// server-side (writer, eventNum) dedup makes the replay exactly-once
		// whichever way the ambiguity resolved (§3.2 reconnection
		// handshake).
		sw.retry = append(sw.retry, events)
	}
	next := sw.settleLocked()
	sw.mu.Unlock()
	next()
}

// settleLocked runs after a batch resolves, whatever its outcome, and after
// a recovery pass: it ships the open batch if a slot is free, wakes Flush,
// and returns the follow-up to run after unlocking. Acks resolve
// out of order, and recovery and seal resolution start only at inflight==0,
// so the last in-flight ack hands off to them whatever its own outcome, or
// parked batches (and their futures) hang. Recovery goes first: recover()
// re-checks sealed once the parked batches are resolved. A sealed rejection
// completes at validation time and can overtake an earlier batch's success
// ack (which waits for the WAL write), so seal resolution can fall to that
// success. Caller holds sw.mu.
func (sw *segmentWriter) settleLocked() func() {
	sw.trySendLocked()
	sw.flushCond.Broadcast()
	switch {
	case sw.inflight > 0 || sw.recovering:
		return func() {}
	case len(sw.retry) > 0:
		sw.recovering = true
		return func() { go sw.recover() }
	case sw.sealed:
		return sw.resolveSeal
	}
	return func() {}
}

// recover re-establishes the writer's position after a disconnect and
// replays the parked batches. It runs with sw.recovering set (blocking new
// sends) and no batch in flight. The server's writer attribute tells which
// parked batches were applied before the connection died: those are acked
// locally; the rest are resent verbatim, oldest first, each following the
// attribute or the batch replayed before it, and server-side deduplication
// discards any the ack merely got lost for (§3.2). The attribute is exact:
// the predecessor check keeps it from passing a batch that was not applied.
func (sw *segmentWriter) recover() {
	w := sw.w
	name := sw.seg.ID.QualifiedName()
	var attr int64
	// A disconnect retries indefinitely (the transport reconnects with
	// backoff underneath us); other transient failures — a container with
	// no owner mid-failover — are bounded so a writer against a cluster
	// that never recovers fails its futures instead of hanging.
	transientDeadline := time.Now().Add(30 * time.Second)
	for {
		a, err := w.conn.WriterState(name, w.cfg.ID)
		if err == nil {
			attr = a
			break
		}
		if !errors.Is(err, client.ErrDisconnected) &&
			!(transientAppendErr(err) && time.Now().Before(transientDeadline)) {
			sw.mu.Lock()
			recs := sw.retry
			sw.retry = nil
			sw.recovering = false
			next := sw.settleLocked()
			sw.mu.Unlock()
			cerr := convertErr(err)
			for _, rec := range recs {
				for _, pe := range rec {
					pe.future.complete(cerr)
				}
			}
			next()
			return
		}
		// Still disconnected; the transport is reconnecting with backoff.
		time.Sleep(5 * time.Millisecond)
	}

	sw.mu.Lock()
	recs := sw.retry
	sw.retry = nil
	sw.mu.Unlock()
	// Completion callbacks can arrive out of order across a disconnect;
	// replay must be oldest-first.
	sort.Slice(recs, func(i, j int) bool { return recs[i].lastNum() < recs[j].lastNum() })
	prev := attr
	for _, rec := range recs {
		if rec.lastNum() <= attr {
			// Applied before the connection died — only the ack was lost.
			for _, pe := range rec {
				pe.future.complete(nil)
			}
			continue
		}
		sw.mu.Lock()
		sw.inflight++
		sw.sendBatch(rec, prev)
		sw.mu.Unlock()
		prev = rec.lastNum()
	}

	sw.mu.Lock()
	// A batch that failed for good after its successors were sent is not
	// applied; later sends follow what is.
	sw.last = prev
	sw.recovering = false
	// A replayed batch may have failed again (or the segment sealed)
	// while we were resending; route to the right follow-up.
	next := sw.settleLocked()
	sw.mu.Unlock()
	next()
}

// resolveSeal runs once all in-flight batches of a sealed segment have
// resolved: it fetches the successors (which, per the controller-writer
// protocol of Fig. 2b, were created before the segment was sealed),
// refreshes the route table, and re-routes the failed and parked events in
// their original order.
func (sw *segmentWriter) resolveSeal() {
	w := sw.w
	// Fetch the successors. Per the controller-writer protocol (Fig. 2b)
	// they are created before the segment is sealed but published to
	// metadata only after sealing completes, so poll across that window. A
	// sealed segment that never gains successors means the whole stream was
	// sealed: pending events can never be appended.
	for {
		succs, err := w.sys.client.GetSuccessors(w.cfg.Scope, w.cfg.Stream, sw.seg.ID.Number)
		if err != nil {
			sw.failPending(convertErr(err))
			return
		}
		if len(succs) > 0 {
			break
		}
		sealed, err := w.sys.client.IsStreamSealed(w.cfg.Scope, w.cfg.Stream)
		if err != nil {
			sw.failPending(convertErr(err))
			return
		}
		if sealed {
			sw.failPending(fmt.Errorf("%w: %s/%s", ErrStreamSealed, w.cfg.Scope, w.cfg.Stream))
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	segs, err := w.sys.client.GetActiveSegments(w.cfg.Scope, w.cfg.Stream)
	if err != nil {
		sw.failPending(convertErr(err))
		return
	}
	w.mu.Lock()
	w.route.segments = segs
	delete(w.writers, sw.seg.ID.Number)
	w.stale = len(w.writers)
	for _, s := range segs {
		if _, ok := w.writers[s.ID.Number]; ok {
			w.stale--
		}
	}
	sw.mu.Lock()
	pending := append(sw.redirect, sw.batch...)
	pending = append(pending, sw.held...)
	sw.redirect, sw.batch, sw.held = nil, nil, nil
	sw.batchSize = 0
	sw.flushCond.Broadcast()
	sw.mu.Unlock()
	for _, pe := range pending {
		w.enqueueLocked(pe)
	}
	w.mu.Unlock()
}

func (sw *segmentWriter) failPending(err error) {
	sw.mu.Lock()
	pending := append(sw.redirect, sw.batch...)
	pending = append(pending, sw.held...)
	for _, rec := range sw.retry {
		pending = append(pending, rec...)
	}
	sw.redirect, sw.batch, sw.held, sw.retry = nil, nil, nil, nil
	sw.flushCond.Broadcast()
	sw.mu.Unlock()
	for _, pe := range pending {
		pe.future.complete(err)
	}
}
