package pravega

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/controller"
	"github.com/pravega-go/pravega/internal/segstore"
)

// TestSentinelConversion checks convertErr against every internal/public
// pair: the converted error must match both sentinels with errors.Is and
// keep the original message.
func TestSentinelConversion(t *testing.T) {
	for _, p := range sentinelPairs {
		wrapped := fmt.Errorf("layer context: %w", p.internal)
		got := convertErr(wrapped)
		if !errors.Is(got, p.public) {
			t.Errorf("convertErr(%v) does not match public sentinel %v", p.internal, p.public)
		}
		if !errors.Is(got, p.internal) {
			t.Errorf("convertErr(%v) lost the internal sentinel", p.internal)
		}
		if got.Error() != wrapped.Error() {
			t.Errorf("convertErr changed the message: %q -> %q", wrapped.Error(), got.Error())
		}
	}
	if convertErr(nil) != nil {
		t.Error("convertErr(nil) != nil")
	}
	plain := errors.New("unrelated")
	if convertErr(plain) != plain {
		t.Error("convertErr must pass unknown errors through unchanged")
	}
}

// TestSentinelsEndToEnd drives the public API into each control-plane error
// and checks the public sentinel matches.
func TestSentinelsEndToEnd(t *testing.T) {
	sys := newTestSystem(t)
	if err := sys.Streams().CreateScope(context.Background(), "s"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Streams().CreateScope(context.Background(), "s"); !errors.Is(err, ErrScopeExists) {
		t.Errorf("duplicate CreateScope: got %v, want ErrScopeExists", err)
	}
	if err := sys.Streams().Create(context.Background(), StreamConfig{Scope: "nope", Name: "x", InitialSegments: 1}); !errors.Is(err, ErrScopeNotFound) {
		t.Errorf("CreateStream in unknown scope: got %v, want ErrScopeNotFound", err)
	}
	if err := sys.Streams().Create(context.Background(), StreamConfig{Scope: "s", Name: "st", InitialSegments: 1}); err != nil {
		t.Fatal(err)
	}
	if err := sys.Streams().Create(context.Background(), StreamConfig{Scope: "s", Name: "st", InitialSegments: 1}); !errors.Is(err, ErrStreamExists) {
		t.Errorf("duplicate CreateStream: got %v, want ErrStreamExists", err)
	}
	if err := sys.Streams().Seal(context.Background(), "s", "missing"); !errors.Is(err, ErrStreamNotFound) {
		t.Errorf("SealStream on unknown stream: got %v, want ErrStreamNotFound", err)
	}
	// The internal sentinel must keep matching too (compatibility).
	err := sys.Streams().CreateScope(context.Background(), "s")
	if !errors.Is(err, controller.ErrScopeExists) {
		t.Errorf("public error lost internal sentinel: %v", err)
	}
	_ = segstore.ErrSegmentSealed // pairs covered by TestSentinelConversion
}

// TestWriterSealedStreamSentinel seals a stream under a live writer and
// checks pending writes fail with ErrStreamSealed.
func TestWriterSealedStreamSentinel(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "seal", "s", 1)
	w, err := sys.NewWriter(WriterConfig{Scope: "seal", Stream: "s"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.WriteEvent("k", []byte("before")).Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Streams().Seal(context.Background(), "seal", "s"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := w.WriteEvent("k", []byte("after")).Wait(context.Background())
		if err != nil {
			if !errors.Is(err, ErrStreamSealed) {
				t.Fatalf("write to sealed stream: got %v, want ErrStreamSealed", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("writes kept succeeding after SealStream")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestClosedSentinels(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "cl", "s", 1)
	w, err := sys.NewWriter(WriterConfig{Scope: "cl", Stream: "s"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEvent("k", []byte("x")).Wait(context.Background()); !errors.Is(err, ErrWriterClosed) {
		t.Errorf("WriteEvent after Close: got %v, want ErrWriterClosed", err)
	}
	rg, err := sys.NewReaderGroup("rgc", "cl", "s")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rg.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadNextEvent(time.Second); !errors.Is(err, ErrReaderClosed) {
		t.Errorf("ReadNextEvent after Close: got %v, want ErrReaderClosed", err)
	}
	if _, err := r.ReadNextEventCtx(context.Background()); !errors.Is(err, ErrReaderClosed) {
		t.Errorf("ReadNextEventCtx after Close: got %v, want ErrReaderClosed", err)
	}
}

// TestReadNextEventCtxCancel blocks a reader on a quiet stream tail and
// cancels: the call must unblock promptly, not at the fetchers' next poll
// boundary.
func TestReadNextEventCtxCancel(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "ctx", "s", 1)
	rg, err := sys.NewReaderGroup("rgx", "ctx", "s")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rg.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := r.ReadNextEventCtx(ctx)
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the reader reach the tail poll
	start := time.Now()
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
		if d := time.Since(start); d > 200*time.Millisecond {
			t.Fatalf("cancellation took %v, want prompt unblock", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ReadNextEventCtx did not unblock after cancel")
	}
}

// TestReadNextEventZeroTimeout checks the timeout <= 0 contract: exactly one
// non-blocking pass, returning ErrNoEvent on a quiet tail and an event when
// one is ready.
func TestReadNextEventZeroTimeout(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "zt", "s", 1)
	rg, err := sys.NewReaderGroup("rgz", "zt", "s")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rg.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	start := time.Now()
	if _, err := r.ReadNextEvent(0); !errors.Is(err, ErrNoEvent) {
		t.Fatalf("empty stream: got %v, want ErrNoEvent", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("zero-timeout read took %v, want non-blocking", d)
	}

	w, err := sys.NewWriter(WriterConfig{Scope: "zt", Stream: "s"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.WriteEvent("k", []byte("ping")).Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	var got Event
	deadline := time.Now().Add(2 * time.Second)
	for {
		got, err = r.ReadNextEvent(0)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrNoEvent) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("zero-timeout read never returned the written event")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if string(got.Data) != "ping" {
		t.Fatalf("got %q", got.Data)
	}
}

// TestWaitCancel checks Wait returns ctx.Err() on cancellation without
// revoking the write: the future still resolves.
func TestWaitCancel(t *testing.T) {
	f := newFuture()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := f.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	f.complete(nil)
	if err := f.Wait(context.Background()); err != nil {
		t.Fatalf("future did not resolve after cancel-and-complete: %v", err)
	}
}

// TestFlushCancel checks Flush honours an already-cancelled context and that
// a later Flush with a live context still works.
func TestFlushCancel(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "fl", "s", 1)
	w, err := sys.NewWriter(WriterConfig{Scope: "fl", Stream: "s"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 50; i++ {
		w.WriteEvent("k", []byte("payload"))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := w.Flush(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Flush(cancelled): got %v, want context.Canceled", err)
	}
	if err := w.Flush(context.Background()); err != nil {
		t.Fatalf("Flush after a cancelled Flush: %v", err)
	}
}

// TestRebalanceRevisionCaching checks a quiet reader group costs no
// rebalance passes: writing and reading events leaves the group's state
// alone, so nothing wakes the reader to re-sync. A membership change still
// does: a second reader joins and ownership converges.
func TestRebalanceRevisionCaching(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "rb", "s", 2)
	w, err := sys.NewWriter(WriterConfig{Scope: "rb", Stream: "s"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rg, err := sys.NewReaderGroup("rgr", "rb", "s")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rg.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// First read acquires both segments (full rebalance).
	if err := w.WriteEvent("k", []byte("e0")).Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadNextEvent(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	fullBefore := mClientRebalances.Value()
	// Quiet group: reads spread over several hundred milliseconds. The one
	// pass allowed is the wake from the reader's own acquisitions.
	for i := 0; i < 3; i++ {
		time.Sleep(120 * time.Millisecond)
		if err := w.WriteEvent("k", []byte(fmt.Sprintf("e%d", i+1))).Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, err := r.ReadNextEvent(2 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if full := mClientRebalances.Value() - fullBefore; full > 1 {
		t.Errorf("ran %d full rebalances in a quiet group, want <= 1", full)
	}

	// A second reader joins: r1 sees it and releases its surplus.
	r2, err := rg.NewReader("r2")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _ = r.ReadNextEvent(100 * time.Millisecond) // ErrNoEvent expected
		if n := len(ownedSegments(r)); n <= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("r1 still owns both segments after r2 joined")
		}
	}
}
