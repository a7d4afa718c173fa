package pravega

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/client"
	"github.com/pravega-go/pravega/internal/keyspace"
	"github.com/pravega-go/pravega/internal/segstore"
)

// ackFaultTransport decorates a DataTransport with an adversarial ack
// channel: completion callbacks are delayed by a random jitter and a
// fraction of SUCCESSFUL acks are converted into ErrDisconnected — the
// append was applied but the writer never learns it (a lost ack). Per-
// segment callback FIFO, the ordering contract segmentWriters rest on, is
// preserved by draining each segment's callbacks through one worker
// goroutine.
type ackFaultTransport struct {
	client.DataTransport
	mu      sync.Mutex
	rng     *rand.Rand
	workers map[string]chan func()
	wg      sync.WaitGroup
	dropped atomic.Int64
}

func newAckFaultTransport(base client.DataTransport, seed int64) *ackFaultTransport {
	return &ackFaultTransport{
		DataTransport: base,
		rng:           rand.New(rand.NewSource(seed)),
		workers:       make(map[string]chan func()),
	}
}

func (ft *ackFaultTransport) AppendAfter(name string, data []byte, writerID string, prev, eventNum int64, eventCount int32, cb func(segstore.AppendResult)) {
	ft.DataTransport.AppendAfter(name, data, writerID, prev, eventNum, eventCount, func(r segstore.AppendResult) {
		ft.mu.Lock()
		ch, ok := ft.workers[name]
		if !ok {
			ch = make(chan func(), 1024)
			ft.workers[name] = ch
			ft.wg.Add(1)
			go func() {
				defer ft.wg.Done()
				for f := range ch {
					f()
				}
			}()
		}
		delay := time.Duration(ft.rng.Intn(2000)) * time.Microsecond
		drop := r.Err == nil && ft.rng.Float64() < 0.25
		ft.mu.Unlock()
		ch <- func() {
			time.Sleep(delay)
			if drop {
				ft.dropped.Add(1)
				cb(segstore.AppendResult{Offset: -1, Err: client.ErrDisconnected})
				return
			}
			cb(r)
		}
	})
}

// stop drains the per-segment workers. Call only after every in-flight
// append has completed (writer closed).
func (ft *ackFaultTransport) stop() {
	ft.mu.Lock()
	for _, ch := range ft.workers {
		close(ch)
	}
	ft.workers = make(map[string]chan func())
	ft.mu.Unlock()
	ft.wg.Wait()
}

// TestWriterExactlyOnceUnderAckFaults is the writer's exactly-once
// conformance check under duplicated-effect acks: every lost ack forces the
// writer through its disconnect recovery (WriterState handshake + verbatim
// batch replay), and the server-side dedup must absorb the replays. The
// read-back asserts no loss, no duplicates, and contiguous per-key order.
func TestWriterExactlyOnceUnderAckFaults(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			sys := newTestSystem(t)
			scope := fmt.Sprintf("ackfault%d", seed)
			if err := sys.Streams().CreateScope(context.Background(), scope); err != nil {
				t.Fatalf("CreateScope: %v", err)
			}
			if err := sys.Streams().Create(context.Background(), StreamConfig{Scope: scope, Name: "s", InitialSegments: 2}); err != nil {
				t.Fatalf("CreateStream: %v", err)
			}
			w, err := sys.NewWriter(WriterConfig{Scope: scope, Stream: "s"})
			if err != nil {
				t.Fatalf("NewWriter: %v", err)
			}
			ft := newAckFaultTransport(w.conn, seed)
			w.conn = ft

			const keys, perKey = 4, 50
			var futs []*WriteFuture
			for seq := 0; seq < perKey; seq++ {
				for k := 0; k < keys; k++ {
					futs = append(futs, w.WriteEvent(
						fmt.Sprintf("k%d", k),
						[]byte(fmt.Sprintf("k%d:%04d", k, seq))))
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			for i, f := range futs {
				if err := f.Wait(ctx); err != nil {
					t.Fatalf("event %d not acked: %v", i, err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatalf("writer close: %v", err)
			}
			ft.stop()
			if ft.dropped.Load() == 0 {
				t.Fatal("fault transport dropped no acks; test exercised nothing")
			}

			rg, err := sys.NewReaderGroup("rg-"+scope, scope, "s")
			if err != nil {
				t.Fatalf("NewReaderGroup: %v", err)
			}
			r, err := rg.NewReader("r1")
			if err != nil {
				t.Fatalf("NewReader: %v", err)
			}
			defer r.Close()
			total := keys * perKey
			seen := make(map[string]bool, total)
			lastSeq := make(map[string]int, keys)
			deadline := time.Now().Add(60 * time.Second)
			for len(seen) < total {
				ev, err := r.ReadNextEvent(2 * time.Second)
				if errors.Is(err, ErrNoEvent) {
					if time.Now().After(deadline) {
						t.Fatalf("read stalled with %d/%d events", len(seen), total)
					}
					continue
				}
				if err != nil {
					t.Fatalf("ReadNextEvent: %v", err)
				}
				s := string(ev.Data)
				if seen[s] {
					t.Fatalf("duplicate event %q (replay not deduplicated)", s)
				}
				seen[s] = true
				key, seqStr, _ := strings.Cut(s, ":")
				seq, _ := strconv.Atoi(seqStr)
				last, present := lastSeq[key]
				if !present {
					last = -1
				}
				if seq != last+1 {
					t.Fatalf("key %s: seq %d after %d (order/loss violation)", key, seq, last)
				}
				lastSeq[key] = seq
			}
			t.Logf("seed %d: %d acks dropped, %d events exactly-once", seed, ft.dropped.Load(), total)
		})
	}
}

// overtakeTransport fails a writer's first append with client.ErrWrongHost
// without sending it — the router found no owner mid-failover — but only
// after its second append, sent while the first was in flight, has reached
// the store and completed.
type overtakeTransport struct {
	client.DataTransport
	mu    sync.Mutex
	calls int
	first func(segstore.AppendResult)
}

func (ot *overtakeTransport) AppendAfter(name string, data []byte, writerID string, prev, eventNum int64, eventCount int32, cb func(segstore.AppendResult)) {
	ot.mu.Lock()
	ot.calls++
	if ot.calls == 1 {
		ot.first = cb
		ot.mu.Unlock()
		return
	}
	first := ot.first
	ot.first = nil
	ot.mu.Unlock()
	ot.DataTransport.AppendAfter(name, data, writerID, prev, eventNum, eventCount, func(r segstore.AppendResult) {
		cb(r)
		if first != nil {
			go first(segstore.AppendResult{Offset: -1, Err: fmt.Errorf("no owner: %w", client.ErrWrongHost)})
		}
	})
}

// TestWriterBatchCannotOvertakeLostPredecessor: two pipelined batches of
// one segment straddle a placement change; the first never starts, the
// second reaches the store. Both events are acked, so both must be read
// back, in order. Without the container's predecessor check the second is
// applied, and the writer's recovery takes the attribute it set as proof
// that the first was applied too: the first event is acked and lost.
func TestWriterBatchCannotOvertakeLostPredecessor(t *testing.T) {
	sys := newTestSystem(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sys.Streams().CreateScope(ctx, "overtake"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Streams().Create(ctx, StreamConfig{Scope: "overtake", Name: "s", InitialSegments: 1}); err != nil {
		t.Fatal(err)
	}
	w, err := sys.NewWriter(WriterConfig{Scope: "overtake", Stream: "s"})
	if err != nil {
		t.Fatal(err)
	}
	ot := &overtakeTransport{DataTransport: w.conn}
	w.conn = ot
	f1 := w.WriteEvent("k", []byte("e1"))
	f2 := w.WriteEvent("k", []byte("e2"))
	for i, f := range []*WriteFuture{f1, f2} {
		if err := f.Wait(ctx); err != nil {
			t.Fatalf("event %d not acked: %v", i+1, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if ot.calls < 2 {
		t.Fatalf("%d appends sent; the two batches were not pipelined", ot.calls)
	}

	rg, err := sys.NewReaderGroup("rg-overtake", "overtake", "s")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rg.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, want := range []string{"e1", "e2"} {
		ev, err := r.ReadNextEvent(2 * time.Second)
		if err != nil {
			t.Fatalf("reading %s: %v", want, err)
		}
		if string(ev.Data) != want {
			t.Fatalf("read %q, want %q (an acked event was lost or reordered)", ev.Data, want)
		}
	}
}

// heldAcks holds the append results of one segment until release.
type heldAcks struct {
	client.DataTransport
	seg string

	mu       sync.Mutex
	held     []func()
	released bool
}

func (h *heldAcks) AppendAfter(name string, data []byte, writerID string, prev, eventNum int64, eventCount int32, cb func(segstore.AppendResult)) {
	if name != h.seg {
		h.DataTransport.AppendAfter(name, data, writerID, prev, eventNum, eventCount, cb)
		return
	}
	h.DataTransport.AppendAfter(name, data, writerID, prev, eventNum, eventCount, func(r segstore.AppendResult) {
		h.mu.Lock()
		if !h.released {
			h.held = append(h.held, func() { cb(r) })
			h.mu.Unlock()
			return
		}
		h.mu.Unlock()
		cb(r)
	})
}

func (h *heldAcks) release() {
	h.mu.Lock()
	h.released = true
	held := h.held
	h.held = nil
	h.mu.Unlock()
	for _, deliver := range held {
		deliver()
	}
}

// TestMergeReroutesOlderEventAfterNewer: after a scale-down merge, one
// predecessor's seal resolves late, so its re-routed event reaches the
// successor after the other predecessor's younger events were applied
// there. The event must be applied, not acked as a duplicate of the
// writer's higher attribute on the successor.
func TestMergeReroutesOlderEventAfterNewer(t *testing.T) {
	sys := newTestSystem(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	mustCreate(t, sys, "reroute", "s", 2)
	segs, err := sys.Controller().GetActiveSegments("reroute", "s")
	if err != nil || len(segs) != 2 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	keyIn := func(r keyspace.Range) string {
		for i := 0; ; i++ {
			if k := fmt.Sprintf("key-%d", i); r.Contains(keyspace.HashKey(k)) {
				return k
			}
		}
	}
	late, early := keyIn(segs[0].KeyRange), keyIn(segs[1].KeyRange)
	w, err := sys.NewWriter(WriterConfig{Scope: "reroute", Stream: "s"})
	if err != nil {
		t.Fatal(err)
	}
	gate := &heldAcks{DataTransport: w.conn, seg: segs[0].ID.QualifiedName()}
	w.conn = gate
	merged, err := keyspace.Merge(segs[0].KeyRange, segs[1].KeyRange)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Controller().Scale("reroute", "s", []int64{segs[0].ID.Number, segs[1].ID.Number}, []keyspace.Range{merged}); err != nil {
		t.Fatal(err)
	}

	lateF := w.WriteEvent(late, []byte("late"))
	var earlyF []*WriteFuture
	for i := 0; i < 5; i++ {
		earlyF = append(earlyF, w.WriteEvent(early, []byte(fmt.Sprintf("early-%d", i))))
	}
	for _, f := range earlyF {
		if err := f.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	gate.release()
	if err := lateF.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rg, err := sys.NewReaderGroup("rg-reroute", "reroute", "s")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rg.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	seen := map[string]bool{}
	for len(seen) < 6 {
		ev, err := r.ReadNextEvent(2 * time.Second)
		if err != nil {
			t.Fatalf("after %d of 6 events (%v): %v", len(seen), seen, err)
		}
		seen[string(ev.Data)] = true
	}
	if !seen["late"] {
		t.Fatalf("the acked event re-routed last was lost: read %v", seen)
	}
}

// failFirstBatch holds the first append's callback until fail is called,
// which delivers it a non-retryable error; later appends pass through.
type failFirstBatch struct {
	client.DataTransport
	calls atomic.Int32
	held  chan func(segstore.AppendResult)
}

func (ff *failFirstBatch) AppendAfter(name string, data []byte, writerID string, prev, eventNum int64, eventCount int32, cb func(segstore.AppendResult)) {
	if ff.calls.Add(1) == 1 {
		ff.held <- cb
		return
	}
	ff.DataTransport.AppendAfter(name, data, writerID, prev, eventNum, eventCount, cb)
}

// TestWriterShipsOpenBatchAfterPermanentFailure: with every in-flight slot
// taken by a batch that then fails for good, the event queued behind it
// ships when the failure frees the slot, not at the next WriteEvent, ack
// or Flush.
func TestWriterShipsOpenBatchAfterPermanentFailure(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "permfail", "s", 1)
	w, err := sys.NewWriter(WriterConfig{Scope: "permfail", Stream: "s", MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ff := &failFirstBatch{DataTransport: w.conn, held: make(chan func(segstore.AppendResult), 1)}
	w.conn = ff

	f1 := w.WriteEvent("k", []byte("e1"))
	f2 := w.WriteEvent("k", []byte("e2")) // waits in the open batch: the one slot is taken
	(<-ff.held)(segstore.AppendResult{Err: errors.New("permanent failure")})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := f1.Wait(ctx); err == nil || errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("failed batch's future: %v, want its permanent error", err)
	}
	if err := f2.Wait(ctx); err != nil {
		t.Fatalf("queued event: %v, want it appended once the failure freed its slot", err)
	}
}
