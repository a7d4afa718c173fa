package statesync

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// memBacking is an in-memory conditional-append segment.
type memBacking struct {
	mu   sync.Mutex
	data []byte
	// failNext injects one transient conflict.
	failNext bool
}

func (m *memBacking) AppendConditional(data []byte, expectedOffset int64) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failNext {
		m.failNext = false
		return 0, ErrConflict
	}
	if expectedOffset != int64(len(m.data)) {
		return 0, fmt.Errorf("%w: expected %d, length %d", ErrConflict, expectedOffset, len(m.data))
	}
	m.data = append(m.data, data...)
	return int64(len(m.data)), nil
}

func (m *memBacking) Read(offset int64, maxBytes int) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if offset >= int64(len(m.data)) {
		return nil, nil
	}
	end := offset + int64(maxBytes)
	if end > int64(len(m.data)) {
		end = int64(len(m.data))
	}
	return append([]byte(nil), m.data[offset:end]...), nil
}

func TestUpdateAndFetch(t *testing.T) {
	b := &memBacking{}
	var applied []string
	s := New(b, func(u []byte) { applied = append(applied, string(u)) })
	for i := 0; i < 5; i++ {
		i := i
		err := s.Update(func() ([]byte, error) {
			return []byte(fmt.Sprintf("u%d", i)), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(applied) != 5 {
		t.Fatalf("applied %d updates", len(applied))
	}
	for i, u := range applied {
		if u != fmt.Sprintf("u%d", i) {
			t.Fatalf("applied[%d] = %q", i, u)
		}
	}
	if s.Tail() != int64(len(b.data)) {
		t.Fatalf("Tail = %d, segment length %d", s.Tail(), len(b.data))
	}
}

func TestTwoSynchronizersConverge(t *testing.T) {
	b := &memBacking{}
	var s1Applied, s2Applied []string
	s1 := New(b, func(u []byte) { s1Applied = append(s1Applied, string(u)) })
	s2 := New(b, func(u []byte) { s2Applied = append(s2Applied, string(u)) })

	if err := s1.Update(func() ([]byte, error) { return []byte("from-1"), nil }); err != nil {
		t.Fatal(err)
	}
	// s2 is stale; its conditional write conflicts, refetches, retries.
	if err := s2.Update(func() ([]byte, error) { return []byte("from-2"), nil }); err != nil {
		t.Fatal(err)
	}
	if err := s1.Fetch(); err != nil {
		t.Fatal(err)
	}
	want := []string{"from-1", "from-2"}
	for i, w := range want {
		if s1Applied[i] != w || s2Applied[i] != w {
			t.Fatalf("divergence: s1=%v s2=%v", s1Applied, s2Applied)
		}
	}
}

func TestUpdateAbortsWhenGenReturnsNil(t *testing.T) {
	b := &memBacking{}
	s := New(b, func([]byte) {})
	calls := 0
	err := s.Update(func() ([]byte, error) {
		calls++
		return nil, nil
	})
	if err != nil || calls != 1 {
		t.Fatalf("aborting gen: calls=%d err=%v", calls, err)
	}
	if len(b.data) != 0 {
		t.Fatal("abort still wrote")
	}
}

func TestUpdatePropagatesGenError(t *testing.T) {
	b := &memBacking{}
	s := New(b, func([]byte) {})
	wantErr := errors.New("boom")
	if err := s.Update(func() ([]byte, error) { return nil, wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
}

func TestUpdateRetriesTransientConflict(t *testing.T) {
	b := &memBacking{failNext: true}
	s := New(b, func([]byte) {})
	if err := s.Update(func() ([]byte, error) { return []byte("x"), nil }); err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if len(b.data) == 0 {
		t.Fatal("update lost")
	}
}

// TestConcurrentCountersLinearize: N goroutines each increment a shared
// JSON counter; with optimistic concurrency the final value must be exactly
// N×perWorker and every synchronizer must converge to it.
func TestConcurrentCountersLinearize(t *testing.T) {
	b := &memBacking{}
	const workers, per = 4, 25
	type counterState struct {
		mu sync.Mutex
		n  int
	}
	states := make([]*counterState, workers)
	syncs := make([]*Synchronizer, workers)
	for i := range syncs {
		st := &counterState{}
		states[i] = st
		syncs[i] = New(b, func(u []byte) {
			var v int
			if err := json.Unmarshal(u, &v); err == nil {
				st.mu.Lock()
				if v > st.n {
					st.n = v
				}
				st.mu.Unlock()
			}
		})
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				err := syncs[i].Update(func() ([]byte, error) {
					states[i].mu.Lock()
					next := states[i].n + 1
					states[i].mu.Unlock()
					return json.Marshal(next)
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := range syncs {
		if err := syncs[i].Fetch(); err != nil {
			t.Fatal(err)
		}
		states[i].mu.Lock()
		n := states[i].n
		states[i].mu.Unlock()
		if n != workers*per {
			t.Fatalf("sync %d converged to %d, want %d", i, n, workers*per)
		}
	}
}
