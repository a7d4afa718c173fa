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
)

// drainEvents reads until n events arrived or the deadline passes.
func drainEvents(t *testing.T, r *Reader, n int) []Event {
	t.Helper()
	var evs []Event
	for len(evs) < n {
		ev, err := r.ReadNextEvent(5 * time.Second)
		if err != nil {
			t.Fatalf("ReadNextEvent after %d/%d events: %v", len(evs), n, err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// expectNoEvent asserts the stream tail is quiet.
func expectNoEvent(t *testing.T, r *Reader) {
	t.Helper()
	if ev, err := r.ReadNextEvent(300 * time.Millisecond); !errors.Is(err, ErrNoEvent) {
		t.Fatalf("expected quiet tail, got event %q, err %v", ev.Data, err)
	}
}

func TestTxnCommitVisibility(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "txns", "vis", 2)

	w, err := sys.NewWriter(WriterConfig{Scope: "txns", Stream: "vis"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	tw, err := sys.NewTransactionalWriter(TxnWriterConfig{Scope: "txns", Stream: "vis"})
	if err != nil {
		t.Fatal(err)
	}
	defer tw.Close()

	ctx := context.Background()
	txn, err := tw.BeginTxn(ctx)
	if err != nil {
		t.Fatalf("BeginTxn: %v", err)
	}
	if txn.ID() == "" {
		t.Fatal("empty transaction id")
	}

	// Interleave transactional and plain writes on the same keys.
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		txn.WriteEvent(key, []byte("txn-"+key))
		if err := w.WriteEvent(key, []byte("plain-"+key)).Wait(context.Background()); err != nil {
			t.Fatalf("plain write: %v", err)
		}
	}

	rg, err := sys.NewReaderGroup("rg-vis", "txns", "vis")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rg.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Before commit only the plain events are visible.
	for _, ev := range drainEvents(t, r, 5) {
		if !strings.HasPrefix(string(ev.Data), "plain-") {
			t.Fatalf("uncommitted txn event leaked to reader: %q", ev.Data)
		}
	}
	expectNoEvent(t, r)

	if err := txn.Commit(ctx); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if st, err := txn.Status(ctx); err != nil || st != TxnCommitted {
		t.Fatalf("status after commit: %v, %v", st, err)
	}

	// After commit every transactional event is readable — all five at once.
	seen := map[string]bool{}
	for _, ev := range drainEvents(t, r, 5) {
		s := string(ev.Data)
		if !strings.HasPrefix(s, "txn-") {
			t.Fatalf("unexpected event after commit: %q", s)
		}
		if seen[s] {
			t.Fatalf("duplicate committed event %q", s)
		}
		seen[s] = true
	}
	expectNoEvent(t, r)
}

func TestTxnAbortLeavesNothing(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "txns", "abort", 2)
	tw, err := sys.NewTransactionalWriter(TxnWriterConfig{Scope: "txns", Stream: "abort"})
	if err != nil {
		t.Fatal(err)
	}
	defer tw.Close()

	ctx := context.Background()
	txn, err := tw.BeginTxn(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := txn.WriteEvent(fmt.Sprintf("k%d", i), []byte("doomed")).Wait(context.Background()); err != nil {
			t.Fatalf("txn write: %v", err)
		}
	}
	if err := txn.Abort(ctx); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	if st, err := txn.Status(ctx); err != nil || st != TxnAborted {
		t.Fatalf("status after abort: %v, %v", st, err)
	}
	// Terminal-state errors: writes and commits are refused.
	if err := txn.WriteEvent("k", []byte("late")).Wait(context.Background()); !errors.Is(err, ErrTxnClosed) {
		t.Fatalf("write after abort: %v, want ErrTxnClosed", err)
	}
	if err := txn.Commit(ctx); !errors.Is(err, ErrTxnNotOpen) {
		t.Fatalf("commit after abort: %v, want ErrTxnNotOpen", err)
	}

	rg, err := sys.NewReaderGroup("rg-abort", "txns", "abort")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rg.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	expectNoEvent(t, r)
}

// TestTxnPerKeyOrderWithInterleavedWriter is the acceptance check that a
// transactional writer and a plain writer sharing routing keys each keep
// per-key order after the commit merges the transaction into the stream.
func TestTxnPerKeyOrderWithInterleavedWriter(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "txns", "order", 4)

	w, err := sys.NewWriter(WriterConfig{Scope: "txns", Stream: "order"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	tw, err := sys.NewTransactionalWriter(TxnWriterConfig{Scope: "txns", Stream: "order"})
	if err != nil {
		t.Fatal(err)
	}
	defer tw.Close()
	ctx := context.Background()
	txn, err := tw.BeginTxn(ctx)
	if err != nil {
		t.Fatal(err)
	}

	const keys, perKey = 5, 30
	for i := 0; i < perKey; i++ {
		for k := 0; k < keys; k++ {
			key := fmt.Sprintf("key-%d", k)
			txn.WriteEvent(key, []byte(fmt.Sprintf("t:%s:%d", key, i)))
			w.WriteEvent(key, []byte(fmt.Sprintf("p:%s:%d", key, i)))
		}
	}
	if err := w.Flush(context.Background()); err != nil {
		t.Fatalf("plain flush: %v", err)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	rg, err := sys.NewReaderGroup("rg-order", "txns", "order")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rg.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Per (writer, key) the observed sequence numbers must be strictly
	// increasing: the merge preserved each shadow segment's internal order
	// and never interleaved into the middle of the plain writer's runs.
	last := map[string]int{}
	for _, ev := range drainEvents(t, r, 2*keys*perKey) {
		parts := strings.SplitN(string(ev.Data), ":", 3)
		if len(parts) != 3 {
			t.Fatalf("malformed event %q", ev.Data)
		}
		seq, err := strconv.Atoi(parts[2])
		if err != nil {
			t.Fatalf("malformed seq in %q", ev.Data)
		}
		lane := parts[0] + ":" + parts[1]
		if prev, ok := last[lane]; ok && seq <= prev {
			t.Fatalf("per-key order violated on %s: %d after %d", lane, seq, prev)
		}
		last[lane] = seq
	}
}

func TestTxnCommitAfterScale(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "txns", "scaled", 1)
	tw, err := sys.NewTransactionalWriter(TxnWriterConfig{Scope: "txns", Stream: "scaled"})
	if err != nil {
		t.Fatal(err)
	}
	defer tw.Close()
	ctx := context.Background()
	txn, err := tw.BeginTxn(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		txn.WriteEvent(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("pre-scale-%d", i)))
	}

	// The parent is sealed by a manual scale while the transaction is open.
	if err := sys.Streams().Scale(ctx, "txns", "scaled", 0, 2); err != nil {
		t.Fatalf("Scale: %v", err)
	}
	if n, err := sys.Streams().SegmentCount(ctx, "txns", "scaled"); err != nil || n != 2 {
		t.Fatalf("segment count after scale: %d, %v", n, err)
	}

	// The transaction keeps writing into its (unsealed) shadow segments and
	// commits into the successors.
	for i := 0; i < 10; i++ {
		txn.WriteEvent(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("post-scale-%d", i)))
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatalf("Commit after scale: %v", err)
	}

	rg, err := sys.NewReaderGroup("rg-scaled", "txns", "scaled")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rg.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	seen := map[string]bool{}
	for _, ev := range drainEvents(t, r, 20) {
		if seen[string(ev.Data)] {
			t.Fatalf("duplicate event %q", ev.Data)
		}
		seen[string(ev.Data)] = true
	}
	expectNoEvent(t, r)
}

func TestTxnLeaseExpiryReaped(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "txns", "lease", 1)
	tw, err := sys.NewTransactionalWriter(TxnWriterConfig{
		Scope: "txns", Stream: "lease", Lease: 50 * time.Millisecond,
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
	if err := txn.WriteEvent("k", []byte("never-seen")).Wait(context.Background()); err != nil {
		t.Fatalf("txn write: %v", err)
	}

	// The reaper runs with the other policy loops and aborts the
	// transaction once the lease lapses.
	sys.Controller().StartPolicyLoops(20 * time.Millisecond)
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := txn.Status(ctx)
		if err != nil {
			t.Fatalf("Status: %v", err)
		}
		if st == TxnAborted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("txn still %v long after lease expiry", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := txn.Commit(ctx); !errors.Is(err, ErrTxnNotOpen) {
		t.Fatalf("commit of reaped txn: %v, want ErrTxnNotOpen", err)
	}

	rg, err := sys.NewReaderGroup("rg-lease", "txns", "lease")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rg.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	expectNoEvent(t, r)
}

func TestTxnBeginOnUnknownStream(t *testing.T) {
	sys := newTestSystem(t)
	if err := sys.Streams().CreateScope(context.Background(), "txns"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.NewTransactionalWriter(TxnWriterConfig{Scope: "txns", Stream: "ghost"}); !errors.Is(err, ErrStreamNotFound) {
		t.Fatalf("writer on unknown stream: %v, want ErrStreamNotFound", err)
	}
}

func TestTxnContextCancellation(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "txns", "cancel", 1)
	tw, err := sys.NewTransactionalWriter(TxnWriterConfig{Scope: "txns", Stream: "cancel"})
	if err != nil {
		t.Fatal(err)
	}
	defer tw.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tw.BeginTxn(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("BeginTxn with cancelled ctx: %v", err)
	}
	if _, err := sys.Streams().SegmentCount(ctx, "txns", "cancel"); !errors.Is(err, context.Canceled) {
		t.Fatalf("SegmentCount with cancelled ctx: %v", err)
	}
	if err := sys.Streams().Seal(ctx, "txns", "cancel"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Seal with cancelled ctx: %v", err)
	}
}

// TestWriterIDsUnique guards the crypto/rand id fix: clock-derived ids used
// to collide when many writers were created in the same nanosecond tick.
func TestWriterIDsUnique(t *testing.T) {
	const goroutines, perG = 16, 64
	ids := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				cfg := WriterConfig{}
				cfg.defaults()
				ids[g] = append(ids[g], cfg.ID)
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[string]bool, goroutines*perG)
	for _, chunk := range ids {
		for _, id := range chunk {
			if seen[id] {
				t.Fatalf("duplicate writer id %s", id)
			}
			seen[id] = true
		}
	}
}
