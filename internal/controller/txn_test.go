package controller

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/segment"
)

func newTxnController(t *testing.T, data *fakeData, cs *cluster.Store) *Controller {
	t.Helper()
	c, err := New(Config{Data: data, Cluster: cs, ScaleCooldown: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func beginOn(t *testing.T, c *Controller, scope, name string, lease time.Duration) TxnInfo {
	t.Helper()
	info, err := c.BeginTxn(scope, name, lease)
	if err != nil {
		t.Fatalf("BeginTxn: %v", err)
	}
	return info
}

func TestTxnCommitMergesShadows(t *testing.T) {
	data := newFakeData()
	c := newTxnController(t, data, nil)
	defer c.Close()
	if err := c.CreateScope("s"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateStream(StreamConfig{Scope: "s", Name: "t", InitialSegments: 2}); err != nil {
		t.Fatal(err)
	}
	info := beginOn(t, c, "s", "t", time.Minute)
	if len(info.Segments) != 2 {
		t.Fatalf("txn spans %d segments, want 2", len(info.Segments))
	}
	if got, err := c.TxnStatus("s", "t", info.ID); err != nil || got != TxnOpen {
		t.Fatalf("status after begin: %v, %v", got, err)
	}
	// Shadow segments exist on the data plane, invisible to stream metadata.
	for _, ts := range info.Segments {
		if _, err := data.GetInfo(ts.Shadow); err != nil {
			t.Fatalf("shadow %s missing: %v", ts.Shadow, err)
		}
		if !segment.IsTxnSegment(ts.Shadow) {
			t.Fatalf("shadow %s not recognized as txn segment", ts.Shadow)
		}
	}
	// Simulate writes: give each shadow some bytes.
	data.setLength(info.Segments[0].Shadow, 100)
	data.setLength(info.Segments[1].Shadow, 50)
	parent0 := info.Segments[0].Parent.ID.QualifiedName()
	before, _ := data.GetInfo(parent0)

	if err := c.CommitTxn("s", "t", info.ID); err != nil {
		t.Fatalf("CommitTxn: %v", err)
	}
	if got, _ := c.TxnStatus("s", "t", info.ID); got != TxnCommitted {
		t.Fatalf("status after commit: %v", got)
	}
	// Shadows consumed; parent extended by exactly the shadow bytes.
	for _, ts := range info.Segments {
		if _, err := data.GetInfo(ts.Shadow); err == nil {
			t.Fatalf("shadow %s survived the merge", ts.Shadow)
		}
	}
	after, err := data.GetInfo(parent0)
	if err != nil {
		t.Fatal(err)
	}
	if after.Length != before.Length+100 {
		t.Fatalf("parent length %d, want %d", after.Length, before.Length+100)
	}
	// Commit is idempotent.
	if err := c.CommitTxn("s", "t", info.ID); err != nil {
		t.Fatalf("second CommitTxn: %v", err)
	}
	// A committed transaction cannot be aborted.
	if err := c.AbortTxn("s", "t", info.ID); !errors.Is(err, ErrTxnNotOpen) {
		t.Fatalf("abort after commit: %v, want ErrTxnNotOpen", err)
	}
}

func TestTxnAbortDeletesShadows(t *testing.T) {
	data := newFakeData()
	c := newTxnController(t, data, nil)
	defer c.Close()
	if err := c.CreateScope("s"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateStream(StreamConfig{Scope: "s", Name: "t", InitialSegments: 2}); err != nil {
		t.Fatal(err)
	}
	info := beginOn(t, c, "s", "t", time.Minute)
	if err := c.AbortTxn("s", "t", info.ID); err != nil {
		t.Fatalf("AbortTxn: %v", err)
	}
	if got, _ := c.TxnStatus("s", "t", info.ID); got != TxnAborted {
		t.Fatalf("status after abort: %v", got)
	}
	for _, ts := range info.Segments {
		if _, err := data.GetInfo(ts.Shadow); err == nil {
			t.Fatalf("shadow %s survived the abort", ts.Shadow)
		}
	}
	// Abort is idempotent; commit after abort is refused.
	if err := c.AbortTxn("s", "t", info.ID); err != nil {
		t.Fatalf("second AbortTxn: %v", err)
	}
	if err := c.CommitTxn("s", "t", info.ID); !errors.Is(err, ErrTxnNotOpen) {
		t.Fatalf("commit after abort: %v, want ErrTxnNotOpen", err)
	}
}

func TestTxnUnknownAndSealedStream(t *testing.T) {
	data := newFakeData()
	c := newTxnController(t, data, nil)
	defer c.Close()
	if err := c.CreateScope("s"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateStream(StreamConfig{Scope: "s", Name: "t", InitialSegments: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.TxnStatus("s", "t", "nope"); !errors.Is(err, ErrTxnNotFound) {
		t.Fatalf("status of unknown txn: %v, want ErrTxnNotFound", err)
	}
	if err := c.CommitTxn("s", "t", "nope"); !errors.Is(err, ErrTxnNotFound) {
		t.Fatalf("commit of unknown txn: %v, want ErrTxnNotFound", err)
	}
	if err := c.SealStream("s", "t"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BeginTxn("s", "t", time.Minute); !errors.Is(err, ErrStreamSealed) {
		t.Fatalf("begin on sealed stream: %v, want ErrStreamSealed", err)
	}
}

func TestTxnCommitAfterScaleRoutesToSuccessor(t *testing.T) {
	data := newFakeData()
	c := newTxnController(t, data, nil)
	defer c.Close()
	if err := c.CreateScope("s"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateStream(StreamConfig{Scope: "s", Name: "t", InitialSegments: 1}); err != nil {
		t.Fatal(err)
	}
	info := beginOn(t, c, "s", "t", time.Minute)
	data.setLength(info.Segments[0].Shadow, 64)

	// A scaling event seals the parent mid-transaction.
	segs, _ := c.GetActiveSegments("s", "t")
	if err := c.Scale("s", "t", []int64{segs[0].ID.Number}, segs[0].KeyRange.Split(2)); err != nil {
		t.Fatalf("Scale: %v", err)
	}
	after, _ := c.GetActiveSegments("s", "t")
	if len(after) != 2 {
		t.Fatalf("scale produced %d active segments", len(after))
	}

	if err := c.CommitTxn("s", "t", info.ID); err != nil {
		t.Fatalf("CommitTxn after scale: %v", err)
	}
	// The shadow's bytes landed in the successor covering the parent's low
	// bound, not in the sealed parent.
	parentInfo, err := data.GetInfo(segs[0].ID.QualifiedName())
	if err != nil {
		t.Fatal(err)
	}
	if parentInfo.Length != 0 {
		t.Fatalf("sealed parent grew to %d bytes", parentInfo.Length)
	}
	var successorBytes int64
	for _, sw := range after {
		i, err := data.GetInfo(sw.ID.QualifiedName())
		if err != nil {
			t.Fatal(err)
		}
		successorBytes += i.Length
	}
	if successorBytes != 64 {
		t.Fatalf("successors hold %d bytes, want 64", successorBytes)
	}
}

func TestTxnSurvivesControllerRestart(t *testing.T) {
	data := newFakeData()
	cs := cluster.NewStore()
	c1 := newTxnController(t, data, cs)
	if err := c1.CreateScope("s"); err != nil {
		t.Fatal(err)
	}
	if err := c1.CreateStream(StreamConfig{Scope: "s", Name: "t", InitialSegments: 2}); err != nil {
		t.Fatal(err)
	}
	info := beginOn(t, c1, "s", "t", time.Minute)
	c1.Close()

	// A fresh instance reloads the persisted record and can commit it.
	c2 := newTxnController(t, data, cs)
	defer c2.Close()
	if got, err := c2.TxnStatus("s", "t", info.ID); err != nil || got != TxnOpen {
		t.Fatalf("status after restart: %v, %v", got, err)
	}
	if err := c2.CommitTxn("s", "t", info.ID); err != nil {
		t.Fatalf("CommitTxn after restart: %v", err)
	}
	if got, _ := c2.TxnStatus("s", "t", info.ID); got != TxnCommitted {
		t.Fatalf("status after restart commit: %v", got)
	}
}

func TestTxnReaperAbortsExpired(t *testing.T) {
	data := newFakeData()
	c := newTxnController(t, data, nil)
	defer c.Close()
	if err := c.CreateScope("s"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateStream(StreamConfig{Scope: "s", Name: "t", InitialSegments: 1}); err != nil {
		t.Fatal(err)
	}
	expired := beginOn(t, c, "s", "t", time.Millisecond)
	fresh := beginOn(t, c, "s", "t", time.Hour)
	time.Sleep(5 * time.Millisecond)

	c.evaluateTxns()

	if got, _ := c.TxnStatus("s", "t", expired.ID); got != TxnAborted {
		t.Fatalf("expired txn state %v, want aborted", got)
	}
	if _, err := data.GetInfo(expired.Segments[0].Shadow); err == nil {
		t.Fatal("expired txn's shadow survived the reaper")
	}
	if got, _ := c.TxnStatus("s", "t", fresh.ID); got != TxnOpen {
		t.Fatalf("fresh txn state %v, want open", got)
	}
	// Committing the expired transaction is refused.
	if err := c.CommitTxn("s", "t", expired.ID); !errors.Is(err, ErrTxnNotOpen) {
		t.Fatalf("commit of reaped txn: %v, want ErrTxnNotOpen", err)
	}
}

func TestTxnReaperRollsForwardCommitting(t *testing.T) {
	data := newFakeData()
	cs := cluster.NewStore()
	c := newTxnController(t, data, cs)
	defer c.Close()
	if err := c.CreateScope("s"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateStream(StreamConfig{Scope: "s", Name: "t", InitialSegments: 1}); err != nil {
		t.Fatal(err)
	}
	info := beginOn(t, c, "s", "t", time.Minute)
	data.setLength(info.Segments[0].Shadow, 32)

	// Simulate a controller that persisted the committing intent and died
	// before any merge.
	c.mu.Lock()
	c.streams[scopedName("s", "t")].txns[info.ID].State = TxnCommitting
	c.mu.Unlock()
	if err := c.persist(scopedName("s", "t")); err != nil {
		t.Fatal(err)
	}

	c.evaluateTxns()

	if got, _ := c.TxnStatus("s", "t", info.ID); got != TxnCommitted {
		t.Fatalf("state after roll-forward: %v, want committed", got)
	}
	parent, err := data.GetInfo(info.Segments[0].Parent.ID.QualifiedName())
	if err != nil {
		t.Fatal(err)
	}
	if parent.Length != 32 {
		t.Fatalf("parent holds %d bytes after roll-forward, want 32", parent.Length)
	}
}

func TestTxnReaperAfterControllerRestart(t *testing.T) {
	data := newFakeData()
	cs := cluster.NewStore()
	c1 := newTxnController(t, data, cs)
	if err := c1.CreateScope("s"); err != nil {
		t.Fatal(err)
	}
	if err := c1.CreateStream(StreamConfig{Scope: "s", Name: "t", InitialSegments: 2}); err != nil {
		t.Fatal(err)
	}
	expired := beginOn(t, c1, "s", "t", time.Millisecond)
	committing := beginOn(t, c1, "s", "t", time.Minute)
	data.setLength(committing.Segments[0].Shadow, 16)
	data.setLength(committing.Segments[1].Shadow, 16)
	c1.mu.Lock()
	c1.streams[scopedName("s", "t")].txns[committing.ID].State = TxnCommitting
	c1.mu.Unlock()
	if err := c1.persist(scopedName("s", "t")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)

	// The controller dies mid-flight. Its replacement reloads both records
	// from the coordination store; one reaper pass aborts the expired
	// transaction and rolls the committing one forward.
	c1.Close()
	c2 := newTxnController(t, data, cs)
	defer c2.Close()
	c2.evaluateTxns()

	if got, err := c2.TxnStatus("s", "t", expired.ID); err != nil || got != TxnAborted {
		t.Fatalf("expired txn after restart: %v, %v (want aborted)", got, err)
	}
	if got, err := c2.TxnStatus("s", "t", committing.ID); err != nil || got != TxnCommitted {
		t.Fatalf("committing txn after restart: %v, %v (want committed)", got, err)
	}
	for _, ts := range append(expired.Segments, committing.Segments...) {
		if _, err := data.GetInfo(ts.Shadow); err == nil {
			t.Fatalf("shadow %s survived restart cleanup", ts.Shadow)
		}
	}
}

func TestTxnIDsUniqueUnderConcurrency(t *testing.T) {
	const goroutines, perG = 16, 64
	ids := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ids[g] = append(ids[g], newTxnID())
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[string]bool, goroutines*perG)
	for _, chunk := range ids {
		for _, id := range chunk {
			if seen[id] {
				t.Fatalf("duplicate txn id %s", id)
			}
			seen[id] = true
		}
	}
}
