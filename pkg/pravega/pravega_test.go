package pravega

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/obs"
	"github.com/pravega-go/pravega/internal/role"
)

// newTestSystem returns an in-process System for the API test suite: every
// call crosses the wire protocol over in-memory connections.
func newTestSystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewInProcess(SystemConfig{
		Cluster: role.ClusterConfig{Coord: role.CoordConfig{Stores: 2, Containers: 2}},
	})
	if err != nil {
		t.Fatalf("NewInProcess: %v", err)
	}
	t.Cleanup(sys.Close)
	return sys
}

func mustCreate(t *testing.T, sys *System, scope, stream string, segments int) {
	t.Helper()
	if err := sys.Streams().CreateScope(context.Background(), scope); err != nil {
		t.Fatalf("CreateScope: %v", err)
	}
	if err := sys.Streams().Create(context.Background(), StreamConfig{Scope: scope, Name: stream, InitialSegments: segments}); err != nil {
		t.Fatalf("CreateStream: %v", err)
	}
}

// TestInProcessWriteCrossesTheWire pins that an in-process System has no
// shortcut past the wire protocol: one acknowledged event raises the
// process-wide count of requests wire servers received.
func TestInProcessWriteCrossesTheWire(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "wire", "s", 1)
	w, err := sys.NewWriter(WriterConfig{Scope: "wire", Stream: "s"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	requests := obs.Default().Counter("pravega_wire_requests_total", "")
	before := requests.Value()
	if err := w.WriteEvent("k", []byte("v")).Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if after := requests.Value(); after <= before {
		t.Fatalf("pravega_wire_requests_total stayed at %d across an acknowledged write", after)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "demo", "events", 2)

	w, err := sys.NewWriter(WriterConfig{Scope: "demo", Stream: "events"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		w.WriteEvent(fmt.Sprintf("key-%d", i%7), []byte(fmt.Sprintf("event-%03d", i)))
	}
	if err := w.Close(); err != nil {
		t.Fatalf("writer close: %v", err)
	}

	rg, err := sys.NewReaderGroup("rg1", "demo", "events")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rg.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := make(map[string]bool, n)
	for len(got) < n {
		ev, err := r.ReadNextEvent(2 * time.Second)
		if err != nil {
			t.Fatalf("ReadNextEvent after %d events: %v", len(got), err)
		}
		s := string(ev.Data)
		if got[s] {
			t.Fatalf("duplicate event %q", s)
		}
		got[s] = true
	}
}

func TestPerKeyOrdering(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "ord", "s", 4)
	w, err := sys.NewWriter(WriterConfig{Scope: "ord", Stream: "s"})
	if err != nil {
		t.Fatal(err)
	}
	const keys, perKey = 5, 40
	for i := 0; i < perKey; i++ {
		for k := 0; k < keys; k++ {
			w.WriteEvent(fmt.Sprintf("k%d", k), []byte(fmt.Sprintf("k%d:%03d", k, i)))
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rg, err := sys.NewReaderGroup("rg-ord", "ord", "s")
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
		ev, err := r.ReadNextEvent(2 * time.Second)
		if err != nil {
			t.Fatalf("read %d: %v", n, err)
		}
		parts := strings.SplitN(string(ev.Data), ":", 2)
		var seq int
		fmt.Sscanf(parts[1], "%d", &seq)
		if prev, ok := lastSeen[parts[0]]; ok && seq != prev+1 {
			t.Fatalf("key %s: saw %d after %d (order violated)", parts[0], seq, prev)
		}
		lastSeen[parts[0]] = seq
	}
}

func TestManualScalePreservesOrder(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "sc", "s", 1)
	w, err := sys.NewWriter(WriterConfig{Scope: "sc", Stream: "s"})
	if err != nil {
		t.Fatal(err)
	}
	const keys, perKey = 4, 60
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
	// Scale the single segment (epoch 0, number 0) into 3 successors while
	// the writer keeps going.
	if err := sys.Streams().Scale(context.Background(), "sc", "s", 0, 3); err != nil {
		t.Fatalf("ScaleStream: %v", err)
	}
	if n, _ := sys.Streams().SegmentCount(context.Background(), "sc", "s"); n != 3 {
		t.Fatalf("segment count %d, want 3", n)
	}
	write(half, perKey)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rg, err := sys.NewReaderGroup("rg-sc", "sc", "s")
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
			t.Fatalf("key %s: saw %d after %d across scaling", parts[0], seq, prev)
		}
		lastSeen[parts[0]] = seq
	}
	for k, last := range lastSeen {
		if last != perKey-1 {
			t.Fatalf("key %s stopped at %d", k, last)
		}
	}
}

func TestReaderGroupSharesSegments(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "share", "s", 4)
	w, err := sys.NewWriter(WriterConfig{Scope: "share", Stream: "s"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		w.WriteEvent(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("e%04d", i)))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rg, err := sys.NewReaderGroup("rg-share", "share", "s")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := rg.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	r2, err := rg.NewReader("r2")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()

	// Let both readers rebalance until the 4 segments are split fairly
	// between them (readers release surplus segments when the group grows).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := r1.rebalance(); err != nil {
			t.Fatal(err)
		}
		if err := r2.rebalance(); err != nil {
			t.Fatal(err)
		}
		assigned, unassigned, _ := rg.snapshot()
		per := map[string]int{}
		for _, owner := range assigned {
			per[owner]++
		}
		if len(unassigned) == 0 && per["r1"] == 2 && per["r2"] == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("assignment never converged: assigned=%v unassigned=%v", assigned, unassigned)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Both readers together must consume every event exactly once.
	var mu sync.Mutex
	got := map[string]bool{}
	var wg sync.WaitGroup
	for _, rd := range []*Reader{r1, r2} {
		rd := rd
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ev, err := rd.ReadNextEvent(400 * time.Millisecond)
				if err != nil {
					return // quiet tail: this reader's share is drained
				}
				mu.Lock()
				if got[string(ev.Data)] {
					mu.Unlock()
					t.Errorf("duplicate delivery of %q", ev.Data)
					return
				}
				got[string(ev.Data)] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(got) != n {
		t.Fatalf("read %d events, want %d", len(got), n)
	}
}

func TestWriterDedupOnRetry(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "dedup", "s", 1)
	w, err := sys.NewWriter(WriterConfig{Scope: "dedup", Stream: "s", ID: "writer-x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEvent("k", []byte("once")).Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a reconnecting writer re-sending the same event number.
	w2, err := sys.NewWriter(WriterConfig{Scope: "dedup", Stream: "s", ID: "writer-x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.WriteEvent("k", []byte("once")).Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	rg, err := sys.NewReaderGroup("rg-dedup", "dedup", "s")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rg.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.ReadNextEvent(time.Second); err != nil {
		t.Fatalf("first read: %v", err)
	}
	if ev, err := r.ReadNextEvent(300 * time.Millisecond); err == nil {
		t.Fatalf("expected dedup, got second event %q", ev.Data)
	}
}

// TestClusterCoordPolicyIntervalStartsPolicyLoops: a policy interval set on
// the coord's own config reaches the controller, whose reaper then aborts a
// transaction whose lease lapsed.
func TestClusterCoordPolicyIntervalStartsPolicyLoops(t *testing.T) {
	sys, err := NewInProcess(SystemConfig{
		Cluster: role.ClusterConfig{Coord: role.CoordConfig{Stores: 2, Containers: 2, PolicyInterval: 20 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	mustCreate(t, sys, "txns", "policy", 1)
	tw, err := sys.NewTransactionalWriter(TxnWriterConfig{
		Scope: "txns", Stream: "policy", Lease: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tw.Close()
	ctx := context.Background()
	txn, err := tw.BeginTxn(ctx)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := txn.Status(ctx)
		if err != nil {
			t.Fatalf("Status: %v", err)
		}
		if st == TxnAborted {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("txn still %v 5 s after its 50 ms lease: no policy pass ran", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestAutoScalingSplitsHotStream(t *testing.T) {
	sys, err := NewInProcess(SystemConfig{
		Cluster: role.ClusterConfig{Coord: role.CoordConfig{
			Stores: 2, Containers: 2,
			PolicyInterval: 100 * time.Millisecond,
			ScaleCooldown:  200 * time.Millisecond,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Streams().CreateScope(context.Background(), "auto"); err != nil {
		t.Fatal(err)
	}
	err = sys.Streams().Create(context.Background(), StreamConfig{
		Scope: "auto", Name: "s", InitialSegments: 1,
		Scaling: ScalingPolicy{Type: ScalingByEventRate, TargetRate: 50, ScaleFactor: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := sys.NewWriter(WriterConfig{Scope: "auto", Stream: "s"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	deadline := time.Now().Add(10 * time.Second)
	i := 0
	for time.Now().Before(deadline) {
		w.WriteEvent(fmt.Sprintf("k%d", i%64), []byte("0123456789abcdef"))
		i++
		if i%200 == 0 {
			_ = w.Flush(context.Background())
			if n, _ := sys.Streams().SegmentCount(context.Background(), "auto", "s"); n >= 2 {
				return // stream scaled up
			}
		}
		time.Sleep(2 * time.Millisecond) // ~500 e/s, 10x the target
	}
	n, _ := sys.Streams().SegmentCount(context.Background(), "auto", "s")
	t.Fatalf("stream never scaled up (still %d segment(s) after %d events)", n, i)
}
