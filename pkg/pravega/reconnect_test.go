package pravega

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/obs"
	"github.com/pravega-go/pravega/internal/role"
	"github.com/pravega-go/pravega/internal/sim"
	"github.com/pravega-go/pravega/internal/wire"
)

// cuttableDialer dials through dial and can cut every connection it opened
// and refuse new ones for a while, as a restart of every server on its
// address would look from the client.
type cuttableDialer struct {
	dial wire.Dialer

	mu    sync.Mutex
	conns []net.Conn
	until time.Time // dials fail before this
}

func (d *cuttableDialer) Dial(addr string) (net.Conn, error) {
	d.mu.Lock()
	down := time.Now().Before(d.until)
	d.mu.Unlock()
	if down {
		return nil, fmt.Errorf("dial %s: %w", addr, net.ErrClosed)
	}
	c, err := d.dial(addr)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.conns = append(d.conns, c)
	d.mu.Unlock()
	return c, nil
}

func (d *cuttableDialer) cut(down time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.until = time.Now().Add(down)
	for _, c := range d.conns {
		_ = c.Close()
	}
	d.conns = nil
}

// TestWriterSurvivesServerRestart cuts every client connection mid-stream
// and refuses new ones for a while, as a restart of every server on its
// address would. The writer must ride out the outage: every submitted event
// is eventually acknowledged, and reading the stream back shows each event
// exactly once — the writer replays unacknowledged batches after
// reconnecting and the server-side writer-attribute dedup drops anything
// that already landed before the cut.
func TestWriterSurvivesServerRestart(t *testing.T) {
	nw := sim.NewNet()
	backing, err := role.StartCluster(role.SimNet(nw, sim.LinkConfig{}),
		role.ClusterConfig{Coord: role.CoordConfig{Stores: 2, Containers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer backing.Close()
	dialer := &cuttableDialer{dial: nw.Dialer(sim.LinkConfig{})}
	sys, err := connect(dialer.Dial, backing.Addr(), wire.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	mustCreate(t, sys, "boom", "s", 2)

	w, err := sys.NewWriter(WriterConfig{Scope: "boom", Stream: "s"})
	if err != nil {
		t.Fatal(err)
	}

	reconnects := obs.Default().Counter("pravega_wire_client_reconnects_total", "")
	before := reconnects.Value()
	const n = 300
	futures := make([]*WriteFuture, 0, n)
	for i := 0; i < n; i++ {
		if i == n/3 {
			// The servers go: in-flight appends fail, the writer parks
			// their batches for replay. The containers keep their writer
			// attributes, so replayed batches that already landed are
			// deduplicated once the servers are back.
			dialer.cut(200 * time.Millisecond)
		}
		futures = append(futures, w.WriteEvent(fmt.Sprintf("key-%d", i%7), []byte(fmt.Sprintf("event-%05d", i))))
	}
	for i, f := range futures {
		if err := f.Wait(context.Background()); err != nil {
			t.Fatalf("event %d never acknowledged: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if reconnects.Value() == before {
		t.Fatal("the writer acknowledged every event without reconnecting: the cut never bit")
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
