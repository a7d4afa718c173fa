package pravega

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/controller"
	"github.com/pravega-go/pravega/internal/hosting"
	"github.com/pravega-go/pravega/internal/role"
	"github.com/pravega-go/pravega/internal/wire"
)

// TestWriterSurvivesServerRestart kills the wire server mid-stream and
// restarts it on the same address. The writer must ride out the outage:
// every submitted event is eventually acknowledged, and reading the stream
// back shows each event exactly once — the writer replays unacknowledged
// batches after reconnecting and the server-side writer-attribute dedup
// drops anything that already landed before the crash.
func TestWriterSurvivesServerRestart(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	backing, err := role.StartAll(ln, hosting.ClusterConfig{Stores: 2, ContainersPerStore: 2}, controller.Config{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer backing.Close()
	addr := backing.Srv.Addr()

	sys, err := Connect(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	mustCreate(t, sys, "boom", "s", 2)

	w, err := sys.NewWriter(WriterConfig{Scope: "boom", Stream: "s"})
	if err != nil {
		t.Fatal(err)
	}

	const n = 300
	futures := make([]*WriteFuture, 0, n)
	var srv2 *wire.Server
	for i := 0; i < n; i++ {
		switch i {
		case n / 3:
			// Kill the server mid-stream: in-flight appends fail, the
			// writer parks their batches for replay.
			_ = backing.Srv.Close()
		case n/3 + 30:
			// Restart on the same address over the same deployment — the
			// containers keep their writer attributes, so replayed batches
			// that already landed are deduplicated.
			ln, err := net.Listen("tcp", addr)
			if err != nil {
				t.Fatalf("restarting server: %v", err)
			}
			srv2 = role.Serve(backing.Cluster, backing.Ctrl, ln)
			defer srv2.Close()
		}
		futures = append(futures, w.WriteEvent(fmt.Sprintf("key-%d", i%7), []byte(fmt.Sprintf("event-%05d", i))))
	}
	if srv2 == nil { // n/3+30 not reached (defensive; n is fixed above)
		t.Fatal("server never restarted")
	}
	for i, f := range futures {
		if err := f.Wait(context.Background()); err != nil {
			t.Fatalf("event %d never acknowledged: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Read the stream back: every acked event exactly once.
	rg, err := sys.NewReaderGroup("rg", "boom", "s")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rg.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	seen := make(map[string]int)
	for len(seen) < n {
		ev, err := r.ReadNextEvent(5 * time.Second)
		if err != nil {
			t.Fatalf("read back after %d distinct events: %v", len(seen), err)
		}
		seen[string(ev.Data)]++
	}
	// Drain the quiet tail to catch any duplicate deliveries.
	for {
		ev, err := r.ReadNextEvent(300 * time.Millisecond)
		if errors.Is(err, ErrNoEvent) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		seen[string(ev.Data)]++
	}
	if len(seen) != n {
		t.Fatalf("read %d distinct events, wrote %d", len(seen), n)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("event-%05d", i)
		if c := seen[key]; c != 1 {
			t.Errorf("event %d delivered %d times, want exactly once", i, c)
		}
	}
}
