package segstore

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// TestConcurrentAppendsAcrossRollovers drives many concurrent AppendAsyncFunc
// callers while the WAL rolls ledgers every few KiB. Each writer owns one
// segment, so in-order frame application is observable: the writer's
// completions must report strictly sequential offsets (a frame applied out
// of sequence would assign an offset out of order or corrupt segment
// length). Run under -race, this also exercises the applier/frame-builder/
// WAL-callback handoffs for data races across ledger rollovers.
func TestConcurrentAppendsAcrossRollovers(t *testing.T) {
	env := newTestEnv(t)
	cfg := env.containerConfig(1)
	cfg.WALRolloverBytes = 4096 // force frequent ledger rollovers
	c, err := NewContainer(cfg)
	if err != nil {
		t.Fatalf("NewContainer: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })

	const (
		writers  = 8
		appends  = 150
		window   = 32
		evtBytes = 120
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		seg := fmt.Sprintf("scope/stream/%d", w)
		if err := c.CreateSegment(seg); err != nil {
			t.Fatalf("CreateSegment(%s): %v", seg, err)
		}
		wg.Add(1)
		go func(w int, seg string) {
			defer wg.Done()
			data := make([]byte, evtBytes)
			writerID := fmt.Sprintf("writer-%d", w)
			inflight := make([]<-chan AppendResult, 0, window)
			next := int64(0)
			drain := func(ch <-chan AppendResult) bool {
				r := <-ch
				if r.Err != nil {
					errs <- fmt.Errorf("writer %d: append: %w", w, r.Err)
					return false
				}
				if r.Offset != next {
					errs <- fmt.Errorf("writer %d: offset %d, want %d (out-of-order frame apply)", w, r.Offset, next)
					return false
				}
				next += evtBytes
				return true
			}
			for i := 0; i < appends; i++ {
				if len(inflight) == window {
					if !drain(inflight[0]) {
						return
					}
					inflight = inflight[1:]
				}
				inflight = append(inflight, appendAsync(c, seg, data, writerID, int64(i+1)))
			}
			for _, ch := range inflight {
				if !drain(ch) {
					return
				}
			}
		}(w, seg)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	for w := 0; w < writers; w++ {
		seg := fmt.Sprintf("scope/stream/%d", w)
		info, err := c.GetInfo(seg)
		if err != nil {
			t.Fatalf("GetInfo(%s): %v", seg, err)
		}
		if info.Length != int64(appends*evtBytes) {
			t.Fatalf("%s: length %d, want %d", seg, info.Length, appends*evtBytes)
		}
	}
}

// TestAppendPipelineNoPerOpGoroutines pins the tentpole property: the
// append path spawns no goroutine per operation. With hundreds of appends
// in flight, the process goroutine count must stay flat (the old pipeline
// spawned one completion-forwarding goroutine per append, which this test
// catches as a peak hundreds above the baseline).
func TestAppendPipelineNoPerOpGoroutines(t *testing.T) {
	env := newTestEnv(t)
	c := newTestContainer(t, env, 1)
	seg := "scope/stream/0"
	if err := c.CreateSegment(seg); err != nil {
		t.Fatalf("CreateSegment: %v", err)
	}

	baseline := runtime.NumGoroutine()
	const (
		appends = 2048
		window  = 512
	)
	peak := baseline
	data := make([]byte, 64)
	inflight := make([]<-chan AppendResult, 0, window)
	for i := 0; i < appends; i++ {
		if len(inflight) == window {
			if r := <-inflight[0]; r.Err != nil {
				t.Fatalf("append %d: %v", i, r.Err)
			}
			inflight = inflight[1:]
		}
		inflight = append(inflight, appendAsync(c, seg, data, "w", int64(i+1)))
		if i%64 == 0 {
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
		}
	}
	for _, ch := range inflight {
		if r := <-ch; r.Err != nil {
			t.Fatalf("append: %v", r.Err)
		}
	}
	// Transient goroutines from timers/flushes are fine; hundreds of
	// goroutines for a 512-deep append window are not.
	if peak > baseline+20 {
		t.Fatalf("goroutine peak %d with baseline %d: append path is spawning per-op goroutines", peak, baseline)
	}
}
