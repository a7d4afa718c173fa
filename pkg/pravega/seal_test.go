package pravega

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestReadSealedStreamToCompletion: readers drain a sealed stream and then
// report a quiet tail instead of hanging; the group marks every segment
// completed.
func TestReadSealedStreamToCompletion(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "fin", "s", 3)
	w, err := sys.NewWriter(WriterConfig{Scope: "fin", Stream: "s"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	for i := 0; i < n; i++ {
		w.WriteEvent(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("e%03d", i)))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Streams().Seal(context.Background(), "fin", "s"); err != nil {
		t.Fatal(err)
	}

	rg, err := sys.NewReaderGroup("rg-fin", "fin", "s")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rg.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := 0
	for got < n {
		if _, err := r.ReadNextEvent(2 * time.Second); err != nil {
			t.Fatalf("read %d/%d: %v", got, n, err)
		}
		got++
	}
	// Stream drained: further reads time out cleanly.
	if _, err := r.ReadNextEvent(300 * time.Millisecond); !errors.Is(err, ErrNoEvent) {
		t.Fatalf("after drain: %v", err)
	}
	if rg.UnreadSegments() != 0 {
		t.Fatalf("%d segments not completed", rg.UnreadSegments())
	}
}

// TestWriteToSealedStreamFails: a writer on a sealed stream gets errors,
// not hangs.
func TestWriteToSealedStreamFails(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "wseal", "s", 1)
	w, err := sys.NewWriter(WriterConfig{Scope: "wseal", Stream: "s"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEvent("k", []byte("ok")).Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Streams().Seal(context.Background(), "wseal", "s"); err != nil {
		t.Fatal(err)
	}
	f := w.WriteEvent("k", []byte("too late"))
	select {
	case <-f.Done():
		if f.Err() == nil {
			t.Fatal("write to sealed stream succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write to sealed stream hung")
	}
}

// TestDeleteStreamEndToEnd: seal + delete removes the stream and its
// segments from the data plane.
func TestDeleteStreamEndToEnd(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "gone", "s", 2)
	w, err := sys.NewWriter(WriterConfig{Scope: "gone", Stream: "s"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		w.WriteEvent(fmt.Sprintf("k%d", i), []byte("x"))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Streams().Seal(context.Background(), "gone", "s"); err != nil {
		t.Fatal(err)
	}
	if err := sys.Streams().Delete(context.Background(), "gone", "s"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Streams().SegmentCount(context.Background(), "gone", "s"); err == nil {
		t.Fatal("deleted stream still queryable")
	}
	if _, err := sys.NewWriter(WriterConfig{Scope: "gone", Stream: "s"}); err == nil {
		t.Fatal("writer created for deleted stream")
	}
}
