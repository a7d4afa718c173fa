package kvtable

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// memBacking is an in-memory conditional-append log shared by instances.
type memBacking struct {
	mu   sync.Mutex
	data []byte
	// loseAck makes the next append land but report a conflict, the way a
	// retried conditional append looks after its first ack was lost.
	loseAck bool
}

func (m *memBacking) AppendConditional(data []byte, expectedOffset int64) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if expectedOffset != int64(len(m.data)) {
		return 0, fmt.Errorf("%w: offset", statesyncConflict)
	}
	m.data = append(m.data, data...)
	if m.loseAck {
		m.loseAck = false
		return 0, fmt.Errorf("%w: ack lost", statesyncConflict)
	}
	return int64(len(m.data)), nil
}

var statesyncConflict = errors.New("conflict")

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

func TestPutGetDelete(t *testing.T) {
	b := &memBacking{}
	tb := New(b, 1)
	v, err := tb.Put("k", []byte("v1"), NotExists)
	if err != nil || v != 0 {
		t.Fatalf("Put = %d, %v", v, err)
	}
	e, ok, err := tb.Get("k")
	if err != nil || !ok || string(e.Value) != "v1" || e.Version != 0 {
		t.Fatalf("Get = %+v, %v, %v", e, ok, err)
	}
	v, err = tb.Put("k", []byte("v2"), e.Version)
	if err != nil || v != 1 {
		t.Fatalf("conditional Put = %d, %v", v, err)
	}
	if err := tb.Delete("k", 1); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tb.Get("k"); ok {
		t.Fatal("key survives delete")
	}
}

func TestConditionalFailures(t *testing.T) {
	b := &memBacking{}
	tb := New(b, 1)
	if _, err := tb.Put("k", []byte("x"), 5); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("put at missing version: %v", err)
	}
	if _, err := tb.Put("k", []byte("x"), NotExists); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Put("k", []byte("y"), NotExists); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("NotExists against existing key: %v", err)
	}
	if _, err := tb.Put("k", []byte("y"), 7); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("wrong exact version: %v", err)
	}
	if _, err := tb.Put("k", []byte("y"), AnyVersion); err != nil {
		t.Fatalf("unconditional put: %v", err)
	}
	if err := tb.Delete("k", 99); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("delete at wrong version: %v", err)
	}
	if err := tb.Txn(nil); !errors.Is(err, ErrEmptyTxn) {
		t.Fatalf("empty txn: %v", err)
	}
}

func TestMultiKeyTxnAtomicity(t *testing.T) {
	b := &memBacking{}
	tb := New(b, 1)
	if _, err := tb.Put("a", []byte("1"), NotExists); err != nil {
		t.Fatal(err)
	}
	// One op's condition fails → nothing applies.
	err := tb.Txn([]TxnOp{
		{Key: "a", Value: []byte("2"), Expected: 0},
		{Key: "b", Value: []byte("1"), Expected: 7}, // fails
	})
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("txn with failing op: %v", err)
	}
	e, _, _ := tb.Get("a")
	if string(e.Value) != "1" {
		t.Fatal("partial transaction applied")
	}
	// All conditions hold → both apply.
	err = tb.Txn([]TxnOp{
		{Key: "a", Value: []byte("2"), Expected: 0},
		{Key: "b", Value: []byte("1"), Expected: NotExists},
	})
	if err != nil {
		t.Fatal(err)
	}
	ea, _, _ := tb.Get("a")
	eb, ok, _ := tb.Get("b")
	if string(ea.Value) != "2" || !ok || string(eb.Value) != "1" {
		t.Fatalf("txn not applied: a=%q b=%q", ea.Value, eb.Value)
	}
}

func TestTwoInstancesConverge(t *testing.T) {
	b := &memBacking{}
	t1 := New(b, 1)
	t2 := New(b, 2)
	if _, err := t1.Put("shared", []byte("from-1"), NotExists); err != nil {
		t.Fatal(err)
	}
	e, ok, err := t2.Get("shared")
	if err != nil || !ok || string(e.Value) != "from-1" {
		t.Fatalf("instance 2 Get = %+v, %v, %v", e, ok, err)
	}
	// Instance 2 updates conditionally on what it read.
	if _, err := t2.Put("shared", []byte("from-2"), e.Version); err != nil {
		t.Fatal(err)
	}
	e1, _, _ := t1.Get("shared")
	if string(e1.Value) != "from-2" {
		t.Fatalf("instance 1 sees %q", e1.Value)
	}
}

func TestConditionalRaceExactlyOneWinner(t *testing.T) {
	b := &memBacking{}
	t1 := New(b, 1)
	t2 := New(b, 2)
	if _, err := t1.Put("race", []byte("base"), NotExists); err != nil {
		t.Fatal(err)
	}
	e1, _, _ := t1.Get("race")
	e2, _, _ := t2.Get("race")
	err1 := func() error { _, err := t1.Put("race", []byte("w1"), e1.Version); return err }()
	err2 := func() error { _, err := t2.Put("race", []byte("w2"), e2.Version); return err }()
	wins := 0
	if err1 == nil {
		wins++
	}
	if err2 == nil {
		wins++
	}
	if wins != 1 {
		t.Fatalf("conditional race: %d winners (err1=%v err2=%v)", wins, err1, err2)
	}
	lose := err2
	if err1 != nil {
		lose = err1
	}
	if !errors.Is(lose, ErrVersionMismatch) {
		t.Fatalf("loser error: %v", lose)
	}
}

func TestConcurrentCountersLinearize(t *testing.T) {
	b := &memBacking{}
	const workers, per = 4, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			tb := New(b, int64(w+10))
			for i := 0; i < per; i++ {
				for {
					e, ok, err := tb.Get("ctr")
					if err != nil {
						t.Error(err)
						return
					}
					var n int
					expected := NotExists
					if ok {
						fmt.Sscanf(string(e.Value), "%d", &n)
						expected = e.Version
					}
					_, err = tb.Put("ctr", []byte(fmt.Sprintf("%d", n+1)), expected)
					if err == nil {
						break
					}
					if !errors.Is(err, ErrVersionMismatch) {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	tb := New(b, 99)
	e, ok, err := tb.Get("ctr")
	if err != nil || !ok {
		t.Fatal(err)
	}
	var final int
	fmt.Sscanf(string(e.Value), "%d", &final)
	if final != workers*per {
		t.Fatalf("counter = %d, want %d", final, workers*per)
	}
	if e.Version != int64(workers*per-1) {
		t.Fatalf("version = %d", e.Version)
	}
}

// A transaction whose append landed but whose ack was lost must be
// recognised by its applied outcome on the refetch, not re-checked against
// the state it produced itself (NotExists would then fail) or re-appended.
func TestLostAckCommitsOnce(t *testing.T) {
	b := &memBacking{loseAck: true}
	tb := New(b, 1)
	v, err := tb.Put("k", []byte("v"), NotExists)
	if err != nil || v != 0 {
		t.Fatalf("put after lost ack = version %d, %v; want 0, nil", v, err)
	}
	if e, ok, err := New(b, 2).Get("k"); err != nil || !ok || e.Version != 0 {
		t.Fatalf("replayed entry = %+v, %v, %v; want one application (version 0)", e, ok, err)
	}
}

func TestKeysAndLen(t *testing.T) {
	b := &memBacking{}
	tb := New(b, 1)
	for _, k := range []string{"zebra", "alpha", "mid"} {
		if _, err := tb.Put(k, []byte("v"), NotExists); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := tb.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 || keys[0] != "alpha" || keys[2] != "zebra" {
		t.Fatalf("Keys = %v", keys)
	}
	n, err := tb.Len()
	if err != nil || n != 3 {
		t.Fatalf("Len = %d, %v", n, err)
	}
}
