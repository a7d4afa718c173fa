package pravega

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestReaderRaceUnderRebalanceChurn is the -race regression test for the
// reader cursor state: one reader consumes continuously while other readers
// join and leave the group, so ownership of its segments churns mid-read
// (surplus release, reacquire, fetchers stopped with a batch in hand).
// Every event must still be delivered exactly once across all readers.
func TestReaderRaceUnderRebalanceChurn(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "churn", "s", 4)

	w, err := sys.NewWriter(WriterConfig{Scope: "churn", Stream: "s"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	for i := 0; i < n; i++ {
		w.WriteEvent(fmt.Sprintf("key-%d", i%13), []byte(fmt.Sprintf("ev-%04d", i)))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rg, err := sys.NewReaderGroup("rg-churn", "churn", "s")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := rg.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()

	var mu sync.Mutex
	got := map[string]bool{}
	record := func(data []byte) {
		mu.Lock()
		defer mu.Unlock()
		s := string(data)
		if got[s] {
			t.Errorf("duplicate delivery of %q", s)
		}
		got[s] = true
	}
	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(got)
	}

	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			ev, err := r1.ReadNextEvent(50 * time.Millisecond)
			if err != nil {
				continue // quiet tail or segment churn; keep polling
			}
			record(ev.Data)
		}
	}()

	// Churn: transient readers join, consume a little, and leave, forcing
	// r1 to release surplus segments and reacquire them afterwards.
	for cycle := 0; cycle < 8 && count() < n; cycle++ {
		r2, err := rg.NewReader(fmt.Sprintf("churn-%d", cycle))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			ev, err := r2.ReadNextEvent(20 * time.Millisecond)
			if err != nil {
				continue
			}
			record(ev.Data)
		}
		if err := r2.Close(); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(20 * time.Second)
	for count() < n && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	<-readerDone
	if got := count(); got != n {
		t.Fatalf("read %d distinct events, want %d", got, n)
	}
}

// TestCatchUpPipeliningDeliversBacklog writes a backlog of several 1 MiB
// fetches, then drains it: every event must arrive exactly once, in per-key
// order, and at least one fetch must have overlapped with the consumer
// draining an earlier batch.
func TestCatchUpPipeliningDeliversBacklog(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "catchup", "s", 1)

	w, err := sys.NewWriter(WriterConfig{Scope: "catchup", Stream: "s"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	const eventSize = 1024
	for i := 0; i < n; i++ {
		payload := make([]byte, eventSize)
		copy(payload, fmt.Sprintf("ev-%06d", i))
		w.WriteEvent("k", payload)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	prefetchesBefore := mClientPrefetches.Value()

	rg, err := sys.NewReaderGroup("rg-catchup", "catchup", "s")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rg.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for i := 0; i < n; i++ {
		ev, err := r.ReadNextEvent(5 * time.Second)
		if err != nil {
			t.Fatalf("read %d/%d: %v", i, n, err)
		}
		want := fmt.Sprintf("ev-%06d", i)
		if string(ev.Data[:len(want)]) != want {
			t.Fatalf("event %d: got %q, want prefix %q (catch-up reordered or corrupted)", i, ev.Data[:len(want)], want)
		}
		if len(ev.Data) != eventSize {
			t.Fatalf("event %d: length %d, want %d", i, len(ev.Data), eventSize)
		}
	}
	if mClientPrefetches.Value() == prefetchesBefore {
		t.Fatal("catch-up drain never fetched ahead of the consumer")
	}
}
