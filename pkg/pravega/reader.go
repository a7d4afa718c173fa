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
	// Data is the event payload. It aliases the reader's copy of the fetch
	// that carried it, which no later fetch overwrites: it stays valid
	// indefinitely, but callers that modify it in place should copy it first.
	Data []byte
	// Stream is the stream the event came from (reader groups may span
	// several streams).
	Stream string
	// Segment is the number of the segment the event came from.
	Segment int64
	// Offset is the event frame's start offset within the segment.
	Offset int64
}

const (
	// readBytes is the size of every fetch: a segment behind its tail is
	// read 1 MiB per request (§5.7), one at its tail yields what arrived.
	readBytes = 1 << 20
	// readerPollWait is how long a fetch waits at a quiet tail, so an idle
	// owned segment, a quiet group, or a reader nobody consumes from, costs
	// about one request per second.
	readerPollWait = time.Second
)

// Reader consumes events from the segments its reader group assigns to it.
// Events with the same routing key are delivered in append order (§3.3).
//
// Every owned segment has a fetcher: a goroutine that reads it back to back
// and hands each result to the consumer — the caller of ReadNextEvent — on
// one reader-wide channel. The consumer owns every cursor and ownership
// change; fetchers do I/O only. One more fetcher reads the group's state
// segment: a batch from it means the group changed, and the consumer
// re-syncs and rebalances.
type Reader struct {
	rg   *ReaderGroup
	name string
	// batches is unbuffered: a fetcher holding a result waits until the
	// consumer needs one, so it runs at most one fetch ahead of it.
	batches chan batch
	// group is the fetcher of the group's state segment.
	group *ownedSegment

	mu     sync.Mutex
	owned  map[string]*ownedSegment
	resync bool // the group changed since the last rebalance pass
	closed bool
}

// ownedSegment is one assigned segment: the consumer's cursor, guarded by
// Reader.mu, and the handle of the fetcher reading ahead of it.
type ownedSegment struct {
	rec   rgSegment
	buf   []byte // fetched bytes not yet delivered
	bufAt int64  // segment offset of buf[0]: everything before it was consumed

	cancel context.CancelFunc
	done   chan struct{} // closed when the fetcher has returned
}

// batch is one fetch outcome on its way to the consumer.
type batch struct {
	seg  *ownedSegment
	data []byte
	at   int64 // segment offset of data[0]
	eos  bool
	err  error
}

// NewReader registers a reader in the group. It takes its share of the
// group's segments on its first read.
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
	r := &Reader{rg: rg, name: name, owned: make(map[string]*ownedSegment), batches: make(chan batch), resync: true}
	// Every update appended after the synchronizer's tail wakes the reader;
	// the first pass covers the ones before it.
	r.group = r.adopt(rgSegment{Qualified: rg.stateSeg, StartOffset: rg.sync.Tail()})
	return r, nil
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
	var dropped, release []*ownedSegment
	r.mu.Lock()
	for qn, seg := range r.owned {
		if assigned[qn] != r.name {
			delete(r.owned, qn)
			dropped = append(dropped, seg)
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
	for qn, seg := range r.owned {
		if len(release) >= mine-fair {
			break
		}
		delete(r.owned, qn)
		release = append(release, seg)
	}
	r.mu.Unlock()
	stop(append(dropped, release...))
	for _, seg := range release {
		err := r.rg.sync.Update(func() ([]byte, error) {
			r.rg.mu.Lock()
			ownedByMe := r.rg.state.assigned[seg.rec.Qualified] == r.name
			r.rg.mu.Unlock()
			if !ownedByMe {
				return nil, nil
			}
			return json.Marshal(rgUpdate{Op: "release", Reader: r.name, Segment: seg.rec.Qualified, Offset: seg.bufAt})
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
	defer r.mu.Unlock()
	r.resync = false
	for qn, owner := range assigned {
		if _, ok := r.owned[qn]; ok || owner != r.name || r.closed {
			continue
		}
		if rec, ok := r.rg.segmentRecord(qn); ok {
			r.owned[qn] = r.adopt(rec)
		}
	}
	return nil
}

// adopt starts the fetcher of a newly owned segment, or of the group's state
// segment, at rec.StartOffset. Its context ends with the System, so a reader
// never closed stops fetching when the System closes.
func (r *Reader) adopt(rec rgSegment) *ownedSegment {
	ctx, cancel := context.WithCancel(r.rg.sys.ctx)
	seg := &ownedSegment{rec: rec, bufAt: rec.StartOffset, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(seg.done)
		r.fetch(ctx, seg)
	}()
	return seg
}

// stop ends the fetchers of segs and waits for them to return; a result one
// had not handed over is dropped with it.
func stop(segs []*ownedSegment) {
	for _, seg := range segs {
		seg.cancel()
	}
	for _, seg := range segs {
		<-seg.done
	}
}

// fetch is one segment's fetcher: back-to-back reads from its own offset,
// each result handed to the consumer, until ctx ends or the segment does.
func (r *Reader) fetch(ctx context.Context, seg *ownedSegment) {
	qn, offset := seg.rec.Qualified, seg.rec.StartOffset
	for {
		res, err := r.rg.conn.ReadCtx(ctx, qn, offset, readBytes, readerPollWait)
		switch {
		case ctx.Err() != nil:
			return
		case errors.Is(err, segstore.ErrSegmentTruncated):
			// Retention moved the head past this offset: resume there.
			if info, ierr := r.rg.conn.GetInfo(qn); ierr == nil && info.StartOffset > offset {
				offset = info.StartOffset
				continue
			}
		case err == nil && len(res.Data) == 0 && !res.EndOfSegment:
			continue // the wait lapsed at a quiet tail
		}
		b := batch{seg: seg, data: res.Data, at: offset, eos: res.EndOfSegment, err: err}
		offset += int64(len(res.Data))
		select {
		case r.batches <- b:
		case <-ctx.Done():
			return
		}
		if b.eos {
			return
		}
	}
}

// ReadNextEvent returns the next event from any assigned segment, waiting
// up to timeout. It returns ErrNoEvent on a quiet tail.
//
// A timeout <= 0 never waits: it returns an event the reader already holds
// or one a fetcher has ready to hand over, and ErrNoEvent otherwise.
func (r *Reader) ReadNextEvent(timeout time.Duration) (Event, error) {
	if timeout <= 0 {
		return r.next(context.Background(), false)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	ev, err := r.next(ctx, true)
	if errors.Is(err, context.DeadlineExceeded) {
		return Event{}, ErrNoEvent
	}
	return ev, err
}

// ReadNextEventCtx returns the next event from any assigned segment,
// waiting until ctx is done. An event already fetched may be served even
// when ctx has expired; otherwise the error is ctx.Err().
func (r *Reader) ReadNextEventCtx(ctx context.Context) (Event, error) {
	return r.next(ctx, true)
}

// next is the consumer: it re-syncs the group when it changed, delivers an
// event the reader holds, or folds in the fetchers' batches until one
// yields an event. Without block it takes only a batch a fetcher is already
// offering.
func (r *Reader) next(ctx context.Context, block bool) (Event, error) {
	for {
		r.mu.Lock()
		closed, resync := r.closed, r.resync
		r.mu.Unlock()
		if closed {
			return Event{}, ErrReaderClosed
		}
		if resync {
			if err := r.rebalance(); err != nil {
				return Event{}, convertErr(err)
			}
			mClientRebalances.Inc()
		}
		if ev, ok, err := r.popBuffered(); err != nil || ok {
			return ev, convertErr(err)
		}
		var b batch
		if !block {
			select {
			case b = <-r.batches:
			default:
				return Event{}, ErrNoEvent
			}
		} else {
			select {
			case b = <-r.batches:
			case <-ctx.Done():
				return Event{}, ctx.Err()
			}
		}
		if err := r.apply(b); err != nil {
			return Event{}, err
		}
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
		mClientEventsRead.Inc()
		return Event{Data: ev, Stream: seg.rec.Stream, Segment: seg.rec.Number, Offset: evOffset}, true, nil
	}
	return Event{}, false, nil
}

// apply folds one batch into its segment's cursor. The end of a segment
// completes it in the group and rebalances. A batch from the group's state
// segment, data or error, marks the group for a re-sync: a failed read
// surfaces here, and the next call's pass retries.
func (r *Reader) apply(b batch) error {
	seg := b.seg
	r.mu.Lock()
	if seg == r.group {
		r.resync = true
		r.mu.Unlock()
		return convertErr(b.err)
	}
	if r.owned[seg.rec.Qualified] != seg {
		r.mu.Unlock()
		return nil // released while the batch was on its way
	}
	switch {
	case b.err != nil:
		r.mu.Unlock()
		return convertErr(b.err)
	case b.eos:
		delete(r.owned, seg.rec.Qualified)
		r.mu.Unlock()
		stop([]*ownedSegment{seg})
		if err := r.rg.completeSegment(seg.rec); err != nil {
			return convertErr(err)
		}
		return convertErr(r.rebalance())
	}
	defer r.mu.Unlock()
	if b.at != seg.bufAt+int64(len(seg.buf)) {
		// The fetcher jumped a truncated prefix: the partial event held from
		// before the jump is gone.
		seg.buf, seg.bufAt = nil, b.at
	}
	seg.buf = append(seg.buf, b.data...)
	// The fetcher reads on as soon as it has handed a batch over; when the
	// batch holds more than the event delivered next, that read overlaps
	// with the consumer draining the rest.
	if _, rest, ok, _ := decodeEventFrame(seg.buf); ok {
		if _, _, ok, _ := decodeEventFrame(rest); ok {
			mClientPrefetches.Inc()
		}
	}
	return nil
}

// Close stops the reader's fetchers and releases its segments back to the
// group at the offsets it consumed up to; fetched bytes it never delivered
// are read again by the next owner.
func (r *Reader) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	owned := make([]*ownedSegment, 0, len(r.owned))
	for _, seg := range r.owned {
		owned = append(owned, seg)
	}
	r.owned = make(map[string]*ownedSegment)
	r.mu.Unlock()
	stop(append([]*ownedSegment{r.group}, owned...))
	for _, seg := range owned {
		err := r.rg.sync.Update(func() ([]byte, error) {
			return json.Marshal(rgUpdate{Op: "release", Reader: r.name, Segment: seg.rec.Qualified, Offset: seg.bufAt})
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
