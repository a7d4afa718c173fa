package pravega

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"time"

	"github.com/pravega-go/pravega/internal/segstore"
)

// ErrNoEvent is returned by ReadNextEvent when the timeout elapses with no
// event available (the stream tail was reached and nothing new arrived).
var ErrNoEvent = errors.New("pravega: no event within timeout")

// Event is one consumed stream event.
type Event struct {
	// Data is the event payload. It aliases the reader's internal fetch
	// buffer: it stays valid indefinitely, but callers that modify it in
	// place should copy it first.
	Data []byte
	// Stream is the stream the event came from (reader groups may span
	// several streams).
	Stream string
	// Segment is the number of the segment the event came from.
	Segment int64
	// Offset is the event frame's start offset within the segment.
	Offset int64
}

// Reader consumes events from the segments its reader group assigns to it.
// Events with the same routing key are delivered in append order (§3.3).
type Reader struct {
	rg   *ReaderGroup
	name string

	mu       sync.Mutex
	owned    map[string]*ownedSegment
	rr       []string // round-robin order
	rrNext   int
	lastSync time.Time
	lastRev  int64 // synchronizer revision at the last full rebalance
	closed   bool

	// catchUpBytes sizes tail fetches; far-behind segments use larger
	// reads so historical catch-up saturates LTS streams (§5.7).
	fetchBytes int
}

// ownedSegment is one assigned segment's read cursor. All fields are
// guarded by Reader.mu; fetch I/O never holds the lock — it works on
// values snapshotted under it and re-validates before applying results.
type ownedSegment struct {
	rec    rgSegment
	offset int64 // next segment offset to fetch
	buf    []byte
	bufAt  int64 // segment offset of buf[0]
	fetch  int   // adaptive fetch size (catch-up escalation)

	// Catch-up pipelining: at most one outstanding async fetch per owned
	// segment, issued while buffered events drain, so the next batch is in
	// flight before the buffer runs dry (§5.7).
	inflight bool
	results  chan fetchResult
}

// fetchResult carries one completed fetch back to the reader loop. offset
// and fetch echo the request, so a result that raced a cursor jump or an
// ownership change is detected and dropped.
type fetchResult struct {
	res    segstore.ReadResult
	err    error
	offset int64
	fetch  int
}

// NewReader registers a reader in the group.
func (rg *ReaderGroup) NewReader(name string) (*Reader, error) {
	err := rg.sync.Update(func() ([]byte, error) {
		rg.mu.Lock()
		known := rg.state.readers[name]
		rg.mu.Unlock()
		if known {
			return nil, nil
		}
		return json.Marshal(rgUpdate{Op: "addReader", Reader: name})
	})
	if err != nil {
		return nil, err
	}
	return &Reader{rg: rg, name: name, owned: make(map[string]*ownedSegment), fetchBytes: 64 << 10}, nil
}

// rebalance refreshes group state and acquires segments up to the fair
// share. It also reconciles the local owned set with the group's view.
func (r *Reader) rebalance() error {
	if err := r.rg.sync.Fetch(); err != nil {
		return err
	}
	assigned, unassigned, readers := r.rg.snapshot()
	if readers == 0 {
		return nil
	}
	// Drop segments no longer ours (released or reassigned).
	r.mu.Lock()
	for qn := range r.owned {
		if assigned[qn] != r.name {
			delete(r.owned, qn)
		}
	}
	mine := 0
	for _, owner := range assigned {
		if owner == r.name {
			mine++
		}
	}
	total := len(assigned) + len(unassigned)
	fair := (total + readers - 1) / readers
	want := fair - mine

	// Over fair share (another reader joined): release surplus segments so
	// the group converges to a fair distribution (§3.3).
	var release []struct {
		qn  string
		off int64
	}
	if mine > fair {
		surplus := mine - fair
		for qn, seg := range r.owned {
			if surplus == 0 {
				break
			}
			release = append(release, struct {
				qn  string
				off int64
			}{qn, seg.bufAt})
			delete(r.owned, qn)
			surplus--
		}
	}
	r.mu.Unlock()
	for _, rel := range release {
		rel := rel
		err := r.rg.sync.Update(func() ([]byte, error) {
			r.rg.mu.Lock()
			ownedByMe := r.rg.state.assigned[rel.qn] == r.name
			r.rg.mu.Unlock()
			if !ownedByMe {
				return nil, nil
			}
			return json.Marshal(rgUpdate{Op: "release", Reader: r.name, Segment: rel.qn, Offset: rel.off})
		})
		if err != nil {
			return err
		}
	}

	for i := 0; i < len(unassigned) && want > 0; i++ {
		qn := unassigned[i]
		err := r.rg.sync.Update(func() ([]byte, error) {
			r.rg.mu.Lock()
			free := r.rg.state.unassigned[qn]
			r.rg.mu.Unlock()
			if !free {
				return nil, nil
			}
			return json.Marshal(rgUpdate{Op: "acquire", Reader: r.name, Segment: qn})
		})
		if err != nil {
			return err
		}
		want--
	}

	// Adopt newly acquired segments.
	assigned, _, _ = r.rg.snapshot()
	r.mu.Lock()
	for qn, owner := range assigned {
		if owner != r.name {
			continue
		}
		if _, ok := r.owned[qn]; !ok {
			rec, ok := r.rg.segmentRecord(qn)
			if !ok {
				continue
			}
			r.owned[qn] = &ownedSegment{rec: rec, offset: rec.StartOffset, bufAt: rec.StartOffset}
		}
	}
	r.rr = r.rr[:0]
	for qn := range r.owned {
		r.rr = append(r.rr, qn)
	}
	r.mu.Unlock()
	return nil
}

// maybeRebalance refreshes group state once the sync window has elapsed (or
// the reader owns nothing) and runs a full rebalance pass only when the
// group's replicated state actually changed since the last pass: the
// synchronizer revision is cached, so a quiet group costs one state fetch
// per window instead of a full reassignment scan with conditional updates.
func (r *Reader) maybeRebalance() error {
	r.mu.Lock()
	needSync := time.Since(r.lastSync) > 100*time.Millisecond || len(r.owned) == 0
	r.mu.Unlock()
	if !needSync {
		return nil
	}
	if err := r.rg.sync.Fetch(); err != nil {
		return convertErr(err)
	}
	rev := r.rg.sync.Updates()
	r.mu.Lock()
	unchanged := rev == r.lastRev && len(r.owned) > 0
	if unchanged {
		r.lastSync = time.Now()
	}
	r.mu.Unlock()
	if unchanged {
		mClientRebalancesSkipped.Inc()
		return nil
	}
	if err := r.rebalance(); err != nil {
		return convertErr(err)
	}
	mClientRebalances.Inc()
	// Cache the revision read BEFORE the pass: the group's readers in this
	// process share the synchronizer, so re-reading it here could cover a
	// release that landed after this pass's snapshot and would never be
	// picked up. Our own updates cost one more pass, which finds nothing.
	r.mu.Lock()
	r.lastRev = rev
	r.lastSync = time.Now()
	r.mu.Unlock()
	return nil
}

// ReadNextEvent returns the next event from any assigned segment, waiting
// up to timeout. It returns ErrNoEvent on a quiet tail.
//
// A timeout <= 0 performs exactly one non-blocking pass: a buffered event
// is returned if one is ready, otherwise one zero-wait fetch is attempted
// and ErrNoEvent is returned when it yields nothing.
func (r *Reader) ReadNextEvent(timeout time.Duration) (Event, error) {
	if timeout <= 0 {
		return r.readOnce()
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	ev, err := r.ReadNextEventCtx(ctx)
	if errors.Is(err, context.DeadlineExceeded) {
		return Event{}, ErrNoEvent
	}
	return ev, err
}

// ReadNextEventCtx returns the next event from any assigned segment,
// waiting until ctx is done. Cancellation propagates into the server-side
// tail long-poll, so the call unblocks promptly (not at the next poll
// boundary). An event already buffered locally is served even when ctx has
// expired; otherwise the error is ctx.Err().
func (r *Reader) ReadNextEventCtx(ctx context.Context) (Event, error) {
	for {
		r.mu.Lock()
		closed := r.closed
		r.mu.Unlock()
		if closed {
			return Event{}, ErrReaderClosed
		}
		if err := r.maybeRebalance(); err != nil {
			return Event{}, err
		}

		// Serve a buffered event if any segment has one.
		if ev, ok, err := r.popBuffered(); err != nil {
			return Event{}, convertErr(err)
		} else if ok {
			return ev, nil
		}

		if err := ctx.Err(); err != nil {
			return Event{}, err
		}

		// Fetch more data from the next segment in round-robin order.
		qn := r.nextSegment()
		if qn == "" {
			// Nothing assigned yet; wait briefly for assignments.
			if err := sleepCtx(ctx, 10*time.Millisecond); err != nil {
				return Event{}, err
			}
			continue
		}
		if err := r.fill(ctx, qn, 20*time.Millisecond); err != nil {
			return Event{}, err
		}
	}
}

// readOnce is the timeout <= 0 pass of ReadNextEvent: no sleeping and no
// tail long-poll anywhere.
func (r *Reader) readOnce() (Event, error) {
	r.mu.Lock()
	closed := r.closed
	r.mu.Unlock()
	if closed {
		return Event{}, ErrReaderClosed
	}
	if err := r.maybeRebalance(); err != nil {
		return Event{}, err
	}
	if ev, ok, err := r.popBuffered(); err != nil {
		return Event{}, convertErr(err)
	} else if ok {
		return ev, nil
	}
	if qn := r.nextSegment(); qn != "" {
		if err := r.fill(context.Background(), qn, 0); err != nil {
			return Event{}, err
		}
		if ev, ok, err := r.popBuffered(); err != nil {
			return Event{}, convertErr(err)
		} else if ok {
			return ev, nil
		}
	}
	return Event{}, ErrNoEvent
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

// popBuffered returns the first complete buffered event across owned
// segments. The event's Data slices the segment's fetch buffer directly —
// no per-event copy. That is safe because the buffer only ever grows at
// its end: handed-out events occupy positions strictly before the
// remainder that later appends extend.
func (r *Reader) popBuffered() (Event, bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, seg := range r.owned {
		ev, rest, ok, err := decodeEventFrame(seg.buf)
		if err != nil {
			return Event{}, false, err
		}
		if !ok {
			continue
		}
		evOffset := seg.bufAt
		seg.bufAt += int64(len(seg.buf) - len(rest))
		seg.buf = rest
		out := Event{
			Data:    ev,
			Stream:  seg.rec.Stream,
			Segment: seg.rec.Number,
			Offset:  evOffset,
		}
		mClientEventsRead.Inc()
		// Keep the pipeline primed: when this segment is in catch-up mode
		// and its buffer is running dry, start the next fetch now so it
		// overlaps with the caller consuming this event.
		if !seg.inflight && seg.fetch > r.fetchBytes && len(seg.buf) < seg.fetch/2 {
			r.startPrefetchLocked(seg)
		}
		return out, true, nil
	}
	return Event{}, false, nil
}

// nextSegment picks the next owned segment round-robin, returning its
// qualified name ("" when nothing is owned). It returns a name rather than
// the *ownedSegment so no cursor state escapes r.mu.
func (r *Reader) nextSegment() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.rr) == 0 {
		return ""
	}
	for i := 0; i < len(r.rr); i++ {
		qn := r.rr[r.rrNext%len(r.rr)]
		r.rrNext++
		if _, ok := r.owned[qn]; ok {
			return qn
		}
	}
	return ""
}

// fill obtains more bytes for one segment. When a prefetch is already in
// flight it waits up to `wait` for that result instead of issuing a second
// read; otherwise it performs one synchronous fetch. All cursor state is
// read and written under r.mu — the I/O itself runs on snapshotted values
// and results are re-validated against the live cursor before applying.
func (r *Reader) fill(ctx context.Context, qn string, wait time.Duration) error {
	r.mu.Lock()
	seg, ok := r.owned[qn]
	if !ok {
		r.mu.Unlock()
		return nil // lost ownership since nextSegment; next loop re-picks
	}
	if seg.inflight {
		ch := seg.results
		r.mu.Unlock()
		if wait <= 0 {
			select {
			case fr := <-ch:
				r.harvest(qn, seg)
				return r.applyFetch(qn, fr)
			default:
				return nil
			}
		}
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case fr := <-ch:
			r.harvest(qn, seg)
			return r.applyFetch(qn, fr)
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
			return nil // re-loop; other segments may have data meanwhile
		}
	}
	offset := seg.offset
	fetch := seg.fetch
	if fetch <= 0 {
		fetch = r.fetchBytes
	}
	r.mu.Unlock()

	res, err := r.rg.conn.ReadCtx(ctx, qn, offset, fetch, wait)
	return r.applyFetch(qn, fetchResult{res: res, err: err, offset: offset, fetch: fetch})
}

// harvest clears a segment's inflight flag after its result was taken from
// the channel, guarding against the segment having been dropped and
// re-acquired (a fresh ownedSegment) in between.
func (r *Reader) harvest(qn string, seg *ownedSegment) {
	r.mu.Lock()
	if cur, ok := r.owned[qn]; ok && cur == seg {
		seg.inflight = false
	}
	r.mu.Unlock()
}

// startPrefetchLocked issues the segment's next fetch asynchronously.
// Caller holds r.mu. The fetch uses a zero wait (no tail long-poll): it is
// only started in catch-up mode, where data is known to be available.
func (r *Reader) startPrefetchLocked(seg *ownedSegment) {
	if r.closed || seg.inflight {
		return
	}
	fetch := seg.fetch
	if fetch <= 0 {
		fetch = r.fetchBytes
	}
	if seg.results == nil {
		seg.results = make(chan fetchResult, 1)
	}
	seg.inflight = true
	qn := seg.rec.Qualified
	offset := seg.offset
	ch := seg.results
	mClientPrefetches.Inc()
	go func() {
		res, err := r.rg.conn.ReadCtx(context.Background(), qn, offset, fetch, 0)
		ch <- fetchResult{res: res, err: err, offset: offset, fetch: fetch}
	}()
}

// applyFetch folds one fetch outcome into the segment's cursor, handling
// tail long-polls, truncation jumps and end-of-segment completion.
// Far-behind cursors escalate their fetch size so catch-up saturates the
// historical read path (§5.7). Results that raced a cursor jump or an
// ownership change (offset mismatch, segment replaced) are dropped.
func (r *Reader) applyFetch(qn string, fr fetchResult) error {
	switch {
	case fr.err == nil:
	case errors.Is(fr.err, segstore.ErrSegmentTruncated):
		// Retention moved the head; jump forward.
		info, ierr := r.rg.conn.GetInfo(qn)
		if ierr != nil {
			return convertErr(ierr)
		}
		r.mu.Lock()
		if seg, ok := r.owned[qn]; ok && seg.offset < info.StartOffset {
			seg.offset = info.StartOffset
			seg.buf = nil
			seg.bufAt = info.StartOffset
		}
		r.mu.Unlock()
		return nil
	default:
		return convertErr(fr.err)
	}
	if fr.res.EndOfSegment {
		r.mu.Lock()
		seg, ok := r.owned[qn]
		if !ok || seg.offset != fr.offset {
			r.mu.Unlock()
			return nil // stale: cursor moved since this fetch was issued
		}
		rec := seg.rec
		delete(r.owned, qn)
		r.mu.Unlock()
		if err := r.rg.completeSegment(rec); err != nil {
			return convertErr(err)
		}
		return convertErr(r.rebalance())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	seg, ok := r.owned[qn]
	if !ok || seg.offset != fr.offset {
		return nil // stale result; drop
	}
	// Self-adapting fetch size: full reads mean the cursor is behind, so
	// escalate toward 1 MiB catch-up reads; short reads reset to the tail
	// size.
	full := len(fr.res.Data) >= fr.fetch
	if full {
		next := fr.fetch * 4
		if next > 1<<20 {
			next = 1 << 20
		}
		seg.fetch = next
	} else {
		seg.fetch = r.fetchBytes
	}
	if len(fr.res.Data) > 0 {
		seg.buf = append(seg.buf, fr.res.Data...)
		seg.offset += int64(len(fr.res.Data))
		if full && !seg.inflight {
			// Catch-up pipelining: the next batch is fetched while the
			// caller drains this one.
			r.startPrefetchLocked(seg)
		}
	}
	return nil
}

// Close releases the reader's segments back to the group.
func (r *Reader) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	owned := make(map[string]int64, len(r.owned))
	for qn, seg := range r.owned {
		owned[qn] = seg.bufAt // unconsumed buffered bytes re-read later
	}
	r.mu.Unlock()
	for qn, off := range owned {
		qn, off := qn, off
		err := r.rg.sync.Update(func() ([]byte, error) {
			return json.Marshal(rgUpdate{Op: "release", Reader: r.name, Segment: qn, Offset: off})
		})
		if err != nil {
			return err
		}
	}
	return r.rg.sync.Update(func() ([]byte, error) {
		r.rg.mu.Lock()
		member := r.rg.state.readers[r.name]
		r.rg.mu.Unlock()
		if !member {
			return nil, nil
		}
		return json.Marshal(rgUpdate{Op: "removeReader", Reader: r.name})
	})
}
