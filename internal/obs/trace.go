package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// AppendSpan is one sampled append's traversal of the data-plane pipeline.
// Stage fields are cumulative elapsed times from Start, so the time spent
// *in* a stage is the difference between consecutive fields:
//
//	op queue wait      = Enqueue
//	WAL write + ack    = WALAck  - Enqueue
//	reorder + apply    = Apply   - WALAck
//	completion deliver = Reply   - Apply
type AppendSpan struct {
	// Seq is the span's sample sequence number (monotonic per tracer).
	Seq int64 `json:"seq"`
	// Start is the wall-clock time the operation entered the pipeline.
	Start time.Time `json:"start"`
	// Segment is the target segment's qualified name.
	Segment string `json:"segment"`
	// Bytes is the append payload size.
	Bytes int `json:"bytes"`
	// Enqueue is when the frame builder admitted the op into a frame.
	Enqueue time.Duration `json:"enqueueUs"`
	// WALAck is when the op's frame was acknowledged by the WAL quorum.
	WALAck time.Duration `json:"walAckUs"`
	// Apply is when the in-order applier installed the frame.
	Apply time.Duration `json:"applyUs"`
	// Reply is when the completion was delivered to the caller.
	Reply time.Duration `json:"replyUs"`
}

// Span is a live sampled span. Mark methods are nil-safe so hot paths can
// call them unconditionally: the unsampled (nil) case is a single branch.
type Span struct {
	t *Tracer
	AppendSpan
}

// MarkEnqueued stamps admission into a data frame.
func (s *Span) MarkEnqueued() {
	if s != nil {
		s.Enqueue = time.Since(s.Start)
	}
}

// MarkWALAck stamps the WAL quorum acknowledgement of the span's frame.
func (s *Span) MarkWALAck() {
	if s != nil {
		s.WALAck = time.Since(s.Start)
	}
}

// MarkApplied stamps in-order application into container state.
func (s *Span) MarkApplied() {
	if s != nil {
		s.Apply = time.Since(s.Start)
	}
}

// Finish stamps completion delivery and publishes the span to the tracer's
// ring. It must be called exactly once, last.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.Reply = time.Since(s.Start)
	s.t.push(s.AppendSpan)
}

// Tracer samples appends at a configurable rate (one span per N) into a
// fixed-size ring queryable over /debug/traces. Disabled (rate 0) it costs
// one atomic load per append.
type Tracer struct {
	every atomic.Int64 // sample one per this many; 0 = disabled
	tick  atomic.Int64
	seq   atomic.Int64

	mu   sync.Mutex
	ring []AppendSpan
	next int
	full bool
}

// traceRingSize bounds retained spans.
const traceRingSize = 512

var defaultTracer = &Tracer{ring: make([]AppendSpan, traceRingSize)}

// AppendTraces returns the process-wide append tracer.
func AppendTraces() *Tracer { return defaultTracer }

// SetSampleEvery samples one append span per n appends; n <= 0 disables
// tracing.
func (t *Tracer) SetSampleEvery(n int) {
	if n < 0 {
		n = 0
	}
	t.every.Store(int64(n))
}

// Sample returns a new span for this append if it is selected, nil
// otherwise. The nil result flows through the pipeline via the nil-safe
// Mark methods.
func (t *Tracer) Sample(segment string, bytes int) *Span {
	n := t.every.Load()
	if n == 0 {
		return nil
	}
	if t.tick.Add(1)%n != 0 {
		return nil
	}
	return &Span{
		t: t,
		AppendSpan: AppendSpan{
			Seq:     t.seq.Add(1),
			Start:   time.Now(),
			Segment: segment,
			Bytes:   bytes,
		},
	}
}

// push stores a finished span in the ring.
func (t *Tracer) push(sp AppendSpan) {
	t.mu.Lock()
	t.ring[t.next] = sp
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// Snapshot returns the retained spans, oldest first.
func (t *Tracer) Snapshot() []AppendSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		return append([]AppendSpan(nil), t.ring[:t.next]...)
	}
	out := make([]AppendSpan, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}
