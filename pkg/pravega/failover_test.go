package pravega

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/role"
)

// newFailoverSystem is newTestSystem with failover-friendly ownership
// timings: a short lease TTL so wedged stores are fenced quickly, and a
// three-store cluster so a crash leaves survivors to re-acquire.
func newFailoverSystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewInProcess(SystemConfig{
		Cluster: role.ClusterConfig{
			Coord: role.CoordConfig{Stores: 3, Containers: 2},
			Store: role.StoreConfig{LeaseTTL: 500 * time.Millisecond},
		},
	})
	if err != nil {
		t.Fatalf("NewInProcess: %v", err)
	}
	t.Cleanup(sys.Close)
	return sys
}

// failoverOracle checks exactly-once delivery with per-key ordering across
// concurrent readers.
type failoverOracle struct {
	mu        sync.Mutex
	delivered map[string]int
	lastSeq   map[string]int
	violation string
}

func (o *failoverOracle) observe(event string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.delivered[event]++
	if o.delivered[event] > 1 && o.violation == "" {
		o.violation = fmt.Sprintf("event %q delivered %d times", event, o.delivered[event])
		return
	}
	key, seqStr, ok := strings.Cut(event, ":")
	if !ok {
		o.violation = fmt.Sprintf("malformed event %q", event)
		return
	}
	seq, _ := strconv.Atoi(seqStr)
	if last, seen := o.lastSeq[key]; seen && seq <= last && o.violation == "" {
		o.violation = fmt.Sprintf("key %s: seq %d after %d (reorder)", key, seq, last)
		return
	}
	o.lastSeq[key] = seq
}

func (o *failoverOracle) count() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.delivered)
}

func (o *failoverOracle) failure() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.violation
}

// runFailoverWorkload writes keys*perKey events while disrupt runs midway,
// with a reader tailing the stream the whole time, and asserts the
// exactly-once oracle: every acked event delivered once, in per-key order.
func runFailoverWorkload(t *testing.T, sys *System, scope string, disrupt func()) {
	t.Helper()
	const keys, perKey = 4, 30
	mustCreate(t, sys, scope, "s", 4)

	oracle := &failoverOracle{delivered: make(map[string]int), lastSeq: make(map[string]int)}
	readCtx, readStop := context.WithCancel(context.Background())
	defer readStop()
	rg, err := sys.NewReaderGroup("rg-"+scope, scope, "s")
	if err != nil {
		t.Fatalf("NewReaderGroup: %v", err)
	}
	var readWG sync.WaitGroup
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		r, err := rg.NewReader("r1")
		if err != nil {
			return
		}
		defer r.Close()
		for readCtx.Err() == nil {
			ev, err := r.ReadNextEvent(500 * time.Millisecond)
			if errors.Is(err, ErrNoEvent) {
				continue
			}
			if err != nil {
				// Transient failover error: back off and keep tailing.
				time.Sleep(10 * time.Millisecond)
				continue
			}
			oracle.observe(string(ev.Data))
		}
	}()

	w, err := sys.NewWriter(WriterConfig{Scope: scope, Stream: "s"})
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	write := func(from, to int) []*WriteFuture {
		var futs []*WriteFuture
		for seq := from; seq < to; seq++ {
			for k := 0; k < keys; k++ {
				futs = append(futs, w.WriteEvent(fmt.Sprintf("k%d", k),
					[]byte(fmt.Sprintf("k%d:%04d", k, seq))))
			}
		}
		return futs
	}
	// First half acked before the disruption, so the crash has real state to
	// fence and replay.
	for i, f := range write(0, perKey/2) {
		if err := f.Wait(ctx); err != nil {
			t.Fatalf("pre-disruption event %d not acked: %v", i, err)
		}
	}

	disrupt()

	// Second half rides through the failover: parked batches must replay
	// exactly once against the new owners.
	for i, f := range write(perKey/2, perKey) {
		if err := f.Wait(ctx); err != nil {
			t.Fatalf("post-disruption event %d not acked: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("writer close: %v", err)
	}

	total := keys * perKey
	deadline := time.Now().Add(60 * time.Second)
	for oracle.count() < total {
		if v := oracle.failure(); v != "" {
			t.Fatal(v)
		}
		if time.Now().After(deadline) {
			t.Fatalf("reader stalled at %d/%d events", oracle.count(), total)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Grace window to catch late duplicates.
	time.Sleep(200 * time.Millisecond)
	readStop()
	readWG.Wait()
	if v := oracle.failure(); v != "" {
		t.Fatal(v)
	}
	if oracle.count() != total {
		t.Fatalf("delivered %d events, want %d", oracle.count(), total)
	}
}

// TestWriterReaderSurviveStoreFailover crashes one of three stores while a
// writer/reader pair is in flight: survivors fence and re-acquire its
// containers and the exactly-once oracle stays green.
func TestWriterReaderSurviveStoreFailover(t *testing.T) {
	sys := newFailoverSystem(t)
	runFailoverWorkload(t, sys, "failover", func() {
		if err := sys.Cluster().CrashStore(0); err != nil {
			t.Fatalf("CrashStore: %v", err)
		}
	})
	if err := sys.Cluster().AwaitConverged(10 * time.Second); err != nil {
		t.Fatalf("placement never reconverged: %v", err)
	}
}

// TestWriterReaderSurviveRebalance grows the cluster mid-traffic: the
// assigner moves containers to the new store under load (each old owner
// drains and flushes first), and nothing is lost or duplicated.
func TestWriterReaderSurviveRebalance(t *testing.T) {
	sys := newFailoverSystem(t)
	runFailoverWorkload(t, sys, "rebalance", func() {
		if _, err := sys.Cluster().AddStore(); err != nil {
			t.Fatalf("AddStore: %v", err)
		}
	})
}
