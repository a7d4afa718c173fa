package pravega

import (
	"context"
	"fmt"
	"testing"
	"time"
)

// TestReaderGroupSpansStreams: a single reader group consumes a *set* of
// streams (§3.3's definition) with exactly-once delivery across all of
// them.
func TestReaderGroupSpansStreams(t *testing.T) {
	sys := newTestSystem(t)
	if err := sys.Streams().CreateScope(context.Background(), "multi"); err != nil {
		t.Fatal(err)
	}
	const streams = 3
	const perStream = 40
	for s := 0; s < streams; s++ {
		if err := sys.Streams().Create(context.Background(), StreamConfig{
			Scope: "multi", Name: fmt.Sprintf("s%d", s), InitialSegments: 2,
		}); err != nil {
			t.Fatal(err)
		}
		w, err := sys.NewWriter(WriterConfig{Scope: "multi", Stream: fmt.Sprintf("s%d", s)})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perStream; i++ {
			w.WriteEvent(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("s%d:%03d", s, i)))
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}

	rg, err := sys.NewReaderGroup("rg-multi", "multi", "s0", "s1", "s2")
	if err != nil {
		t.Fatal(err)
	}
	if got := rg.Streams(); len(got) != streams {
		t.Fatalf("Streams() = %v", got)
	}
	r, err := rg.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	got := map[string]bool{}
	perStreamCount := map[string]int{}
	total := streams * perStream
	for len(got) < total {
		ev, err := r.ReadNextEvent(3 * time.Second)
		if err != nil {
			t.Fatalf("read %d/%d: %v", len(got), total, err)
		}
		key := string(ev.Data)
		if got[key] {
			t.Fatalf("duplicate %q", key)
		}
		got[key] = true
		perStreamCount[ev.Stream]++
	}
	for s := 0; s < streams; s++ {
		name := fmt.Sprintf("s%d", s)
		if perStreamCount[name] != perStream {
			t.Fatalf("stream %s delivered %d events, want %d (by-stream: %v)",
				name, perStreamCount[name], perStream, perStreamCount)
		}
	}
}

// TestReaderGroupRequiresStream: a group over zero streams is invalid.
func TestReaderGroupRequiresStream(t *testing.T) {
	sys := newTestSystem(t)
	if err := sys.Streams().CreateScope(context.Background(), "z"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.NewReaderGroup("empty", "z"); err == nil {
		t.Fatal("reader group without streams accepted")
	}
}
