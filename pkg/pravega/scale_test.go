package pravega

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/controller"
	"github.com/pravega-go/pravega/internal/keyspace"
)

// TestScaleDownBarrier verifies §3.3's ordering barrier: after two segments
// merge, the successor is not readable until *both* predecessors have been
// fully consumed, so per-key order holds across a scale-down.
func TestScaleDownBarrier(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "down", "s", 2)
	w, err := sys.NewWriter(WriterConfig{Scope: "down", Stream: "s"})
	if err != nil {
		t.Fatal(err)
	}
	const keys, perKey = 6, 30
	half := perKey / 2
	write := func(from, to int) {
		for i := from; i < to; i++ {
			for k := 0; k < keys; k++ {
				w.WriteEvent(fmt.Sprintf("k%d", k), []byte(fmt.Sprintf("k%d:%03d", k, i)))
			}
		}
	}
	write(0, half)
	if err := w.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Merge the two segments into one (scale-down).
	segs, err := sys.Controller().GetActiveSegments("down", "s")
	if err != nil || len(segs) != 2 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	merged, err := keyspace.Merge(segs[0].KeyRange, segs[1].KeyRange)
	if err != nil {
		t.Fatal(err)
	}
	err = sys.Controller().Scale("down", "s",
		[]int64{segs[0].ID.Number, segs[1].ID.Number}, []keyspace.Range{merged})
	if err != nil {
		t.Fatalf("merge scale: %v", err)
	}
	write(half, perKey)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rg, err := sys.NewReaderGroup("rg-down", "down", "s")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rg.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	lastSeen := map[string]int{}
	for n := 0; n < keys*perKey; n++ {
		ev, err := r.ReadNextEvent(3 * time.Second)
		if err != nil {
			t.Fatalf("read %d/%d: %v", n, keys*perKey, err)
		}
		parts := strings.SplitN(string(ev.Data), ":", 2)
		var seq int
		fmt.Sscanf(parts[1], "%d", &seq)
		if prev, ok := lastSeen[parts[0]]; ok && seq != prev+1 {
			t.Fatalf("key %s: %d after %d — merge barrier violated", parts[0], seq, prev)
		}
		lastSeen[parts[0]] = seq
	}
}

// TestHistoricalReadAfterTiering verifies that a late reader group replays
// data that has left the WAL: everything is tiered to LTS and the WAL
// truncated before the reader starts (§4.3, §5.7).
func TestHistoricalReadAfterTiering(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "hist", "s", 2)
	w, err := sys.NewWriter(WriterConfig{Scope: "hist", Stream: "s"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		w.WriteEvent(fmt.Sprintf("k%d", i%13), []byte(fmt.Sprintf("hist-%04d-%032d", i, i)))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Cluster().WaitForTiering(10 * time.Second); err != nil {
		t.Fatalf("tiering did not finish: %v", err)
	}
	// Force every container to flush and checkpoint so the WAL can shrink.
	for _, st := range sys.Cluster().Stores() {
		for _, id := range st.HostedContainers() {
			c, err := st.ContainerByID(id)
			if err != nil {
				continue
			}
			if err := c.FlushAll(); err != nil {
				t.Fatal(err)
			}
			if err := c.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	rg, err := sys.NewReaderGroup("rg-hist", "hist", "s")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rg.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := map[string]bool{}
	for len(got) < n {
		ev, err := r.ReadNextEvent(3 * time.Second)
		if err != nil {
			t.Fatalf("historical read stalled at %d/%d: %v", len(got), n, err)
		}
		got[string(ev.Data)] = true
	}
}

// TestWriterLargeEvents pushes events far larger than a cache block and a
// frame through the full path.
func TestWriterLargeEvents(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "big", "s", 1)
	w, err := sys.NewWriter(WriterConfig{Scope: "big", Stream: "s"})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 256<<10) // 256 KiB
	for i := range payload {
		payload[i] = byte(i)
	}
	for i := 0; i < 4; i++ {
		if err := w.WriteEvent("k", payload).Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rg, err := sys.NewReaderGroup("rg-big", "big", "s")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rg.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 4; i++ {
		ev, err := r.ReadNextEvent(5 * time.Second)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if len(ev.Data) != len(payload) {
			t.Fatalf("event %d: %d bytes, want %d", i, len(ev.Data), len(payload))
		}
		for j := 0; j < len(payload); j += 1013 {
			if ev.Data[j] != payload[j] {
				t.Fatalf("event %d corrupt at byte %d", i, j)
			}
		}
	}
}

// TestSegmentCountAfterRepeatedScaling walks several scale-ups and checks
// the controller's active-set bookkeeping.
func TestSegmentCountAfterRepeatedScaling(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "multi", "s", 1)
	want := 1
	for round := 0; round < 3; round++ {
		segs, err := sys.Controller().GetActiveSegments("multi", "s")
		if err != nil {
			t.Fatal(err)
		}
		target := segs[0]
		if err := sys.Streams().Scale(context.Background(), "multi", "s", target.ID.Number, 2); err != nil {
			t.Fatal(err)
		}
		want++
		if n, _ := sys.Streams().SegmentCount(context.Background(), "multi", "s"); n != want {
			t.Fatalf("round %d: %d segments, want %d", round, n, want)
		}
	}
	_ = controller.SegmentWithRange{}
}
