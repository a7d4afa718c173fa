package readahead

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testStore is a Fetch backed by a deterministic byte pattern, with
// controllable blocking and fetch counting.
type testStore struct {
	data    []byte
	fetches atomic.Int64
	block   chan struct{} // non-nil: fetches wait until closed
	fail    atomic.Bool
}

func newTestStore(size int64) *testStore {
	s := &testStore{data: make([]byte, size)}
	for i := range s.data {
		s.data[i] = byte(i % 251)
	}
	return s
}

func (s *testStore) size() int64 { return int64(len(s.data)) }

func (s *testStore) fetch(segment string, offset, length int64) ([]byte, error) {
	s.fetches.Add(1)
	if s.block != nil {
		<-s.block
	}
	if s.fail.Load() {
		return nil, errors.New("store down")
	}
	if offset >= s.size() {
		return nil, nil
	}
	end := min(offset+length, s.size())
	return append([]byte(nil), s.data[offset:end]...), nil
}

func checkPattern(t *testing.T, store *testStore, data []byte, offset int64) {
	t.Helper()
	if !bytes.Equal(data, store.data[offset:offset+int64(len(data))]) {
		t.Fatalf("range@%d: wrong bytes", offset)
	}
}

func newTestPrefetcher(t *testing.T, store *testStore, cfg Config) *Prefetcher {
	t.Helper()
	cfg.Fetch = store.fetch
	p := New(cfg)
	t.Cleanup(p.Close)
	return p
}

// drain waits until no fetches are in flight (test helper: scheduling is
// async).
func drain(p *Prefetcher) {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		p.mu.Lock()
		pending := false
		for _, e := range p.entries {
			if e.data == nil {
				pending = true
			}
		}
		p.mu.Unlock()
		if !pending {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

const r = RangeBytes

func TestSequentialDetectionAndHit(t *testing.T) {
	store := newTestStore(8 * r)
	p := newTestPrefetcher(t, store, Config{Depth: 2})

	// One read schedules the two ranges after it.
	p.Observe("seg", 0, r, store.size())
	drain(p)
	if n := store.fetches.Load(); n != 2 {
		t.Fatalf("one read scheduled %d fetches, want 2", n)
	}
	data, ok := p.Get("seg", r)
	if !ok {
		t.Fatal("range after the read not buffered")
	}
	if len(data) != r {
		t.Fatalf("got %d bytes, want %d", len(data), r)
	}
	checkPattern(t, store, data, r)
	// Mid-range offsets serve the tail of the range.
	data, ok = p.Get("seg", 2*r+100)
	if !ok || len(data) != r-100 {
		t.Fatalf("mid-range get: ok=%v len=%d", ok, len(data))
	}
	checkPattern(t, store, data, 2*r+100)
	// The range under the read itself is not fetched again.
	if _, ok := p.Get("seg", 0); ok {
		t.Fatal("the range just read was buffered")
	}
}

func TestSingleFlightSharesFetch(t *testing.T) {
	store := newTestStore(4 * r)
	store.block = make(chan struct{})
	p := newTestPrefetcher(t, store, Config{Depth: 1})
	p.Observe("seg", 0, r, store.size()) // schedules range 1, blocked
	// Several readers ask for the in-flight range concurrently; all must
	// wait on the single fetch and share it.
	const readers = 4
	var wg sync.WaitGroup
	got := make([]bool, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, got[i] = p.Get("seg", r)
		}(i)
	}
	time.Sleep(10 * time.Millisecond)
	close(store.block)
	wg.Wait()
	for i, ok := range got {
		if !ok {
			t.Errorf("reader %d missed the in-flight range", i)
		}
	}
	if n := store.fetches.Load(); n != 1 {
		t.Fatalf("%d fetches for one shared range, want 1", n)
	}
}

func TestBudgetEvictsLRU(t *testing.T) {
	store := newTestStore(2 * r)
	p := newTestPrefetcher(t, store, Config{Depth: 1})
	// One range per segment: the budget holds BudgetBytes/r of them, so the
	// last segment's range must evict the first's.
	n := BudgetBytes/r + 1
	for i := 0; i < n; i++ {
		p.Observe(fmt.Sprint("seg-", i), 0, r, store.size())
		drain(p)
	}
	if used := p.BufferedBytes(); used > BudgetBytes {
		t.Fatalf("budget exceeded: %d > %d", used, BudgetBytes)
	}
	if _, ok := p.Get(fmt.Sprint("seg-", n-1), r); !ok {
		t.Error("newest range evicted instead of LRU")
	}
	if _, ok := p.Get("seg-0", r); ok {
		t.Error("LRU range survived past the budget")
	}
}

func TestShortRangeDiscarded(t *testing.T) {
	store := newTestStore(r + r/2) // 1.5 ranges
	p := newTestPrefetcher(t, store, Config{Depth: 4})
	// limit says 2 ranges are tiered but the store only has 1.5: the fetch
	// for range 1 comes back short and must be dropped, releasing its
	// budget.
	p.Observe("seg", 0, r/2, 2*r)
	drain(p)
	if _, ok := p.Get("seg", r); ok {
		t.Fatal("short range must not be buffered")
	}
	if used := p.BufferedBytes(); used != 0 {
		t.Fatalf("short fetch leaked %d budget bytes", used)
	}
}

func TestFetchErrorReleasesBudgetAndWaiters(t *testing.T) {
	store := newTestStore(4 * r)
	store.fail.Store(true)
	p := newTestPrefetcher(t, store, Config{Depth: 2})
	p.Observe("seg", 0, r, store.size())
	drain(p)
	if _, ok := p.Get("seg", r); ok {
		t.Fatal("failed fetch must not serve data")
	}
	if used := p.BufferedBytes(); used != 0 {
		t.Fatalf("failed fetch leaked %d budget bytes", used)
	}
}

func TestInvalidateDropsRangesBelow(t *testing.T) {
	store := newTestStore(8 * r)
	p := newTestPrefetcher(t, store, Config{Depth: 4})
	p.Observe("seg", 0, r, store.size())
	drain(p)
	if _, ok := p.Get("seg", 2*r); !ok {
		t.Fatal("range not buffered before truncation")
	}
	p.Invalidate("seg", 3*r) // truncate at range 3: ranges 1 and 2 must go
	if _, ok := p.Get("seg", 2*r); ok {
		t.Fatal("pre-truncation range survived Invalidate")
	}
	if _, ok := p.Get("seg", 3*r); !ok {
		t.Fatal("range at the truncation point dropped")
	}
	// Full invalidation (segment deleted).
	p.Observe("other", 0, r, store.size())
	drain(p)
	p.Invalidate("other", -1)
	if _, ok := p.Get("other", r); ok {
		t.Fatal("range survived full Invalidate")
	}
	p.Invalidate("seg", -1)
	if used := p.BufferedBytes(); used != 0 {
		t.Fatalf("invalidate leaked %d budget bytes", used)
	}
}

func TestConcurrentObserveGetRace(t *testing.T) {
	store := newTestStore(8 * r)
	p := newTestPrefetcher(t, store, Config{Depth: 4})
	const step = r / 4
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seg := fmt.Sprintf("seg-%d", i%2)
			for off := int64(0); off < store.size(); off += step {
				if data, ok := p.Get(seg, off); ok {
					checkPattern(t, store, data, off)
				}
				p.Observe(seg, off, off+step, store.size())
			}
		}(i)
	}
	for i := 0; i < 50; i++ {
		p.Invalidate("seg-0", int64(i)*step)
	}
	wg.Wait()
}
