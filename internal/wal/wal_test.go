package wal

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/pravega-go/pravega/internal/bookkeeper"
	"github.com/pravega-go/pravega/internal/cluster"
)

// Append is the blocking form of AppendAsync.
func (l *Log) Append(data []byte) (Address, error) {
	type res struct {
		addr Address
		err  error
	}
	ch := make(chan res, 1)
	l.AppendAsync(data, func(a Address, err error) { ch <- res{a, err} })
	r := <-ch
	return r.addr, r.err
}

func newEnv(t *testing.T) (*bookkeeper.Client, *cluster.Store) {
	t.Helper()
	meta := cluster.NewStore()
	c, err := bookkeeper.NewClient(bookkeeper.ClientConfig{Meta: meta})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		b := bookkeeper.NewBookie(bookkeeper.BookieConfig{ID: fmt.Sprintf("w%d", i)})
		c.RegisterBookie(b)
		t.Cleanup(b.Close)
	}
	return c, meta
}

func openLog(t *testing.T, c *bookkeeper.Client, meta *cluster.Store, name string, rollover int64) *Log {
	t.Helper()
	l, err := Open(Config{
		Name:          name,
		Client:        c,
		Meta:          meta,
		Replication:   bookkeeper.DefaultReplication(),
		RolloverBytes: rollover,
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestAppendAndReplay(t *testing.T) {
	c, meta := newEnv(t)
	l := openLog(t, c, meta, "log-a", 0)
	var want [][]byte
	var addrs []Address
	for i := 0; i < 30; i++ {
		data := []byte(fmt.Sprintf("frame-%02d", i))
		addr, err := l.Append(data)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, data)
		addrs = append(addrs, addr)
	}
	// Addresses are strictly increasing in submission order.
	for i := 1; i < len(addrs); i++ {
		if !addrs[i-1].Less(addrs[i]) {
			t.Fatalf("addresses not ordered: %v then %v", addrs[i-1], addrs[i])
		}
	}
	entries, err := l.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Fatalf("replayed %d entries, want %d", len(entries), len(want))
	}
	for i, e := range entries {
		if !bytes.Equal(e.Data, want[i]) {
			t.Fatalf("entry %d = %q, want %q", i, e.Data, want[i])
		}
		if e.Addr != addrs[i] {
			t.Fatalf("entry %d addr %v, want %v", i, e.Addr, addrs[i])
		}
	}
}

func TestRolloverCreatesLedgers(t *testing.T) {
	c, meta := newEnv(t)
	l := openLog(t, c, meta, "log-roll", 100)
	for i := 0; i < 10; i++ {
		if _, err := l.Append(bytes.Repeat([]byte("x"), 60)); err != nil {
			t.Fatal(err)
		}
	}
	if n := l.RetainedLedgers(); n < 3 {
		t.Fatalf("expected multiple ledgers after rollover, got %d", n)
	}
	entries, err := l.ReadAll()
	if err != nil || len(entries) != 10 {
		t.Fatalf("replay after rollover: %d entries, %v", len(entries), err)
	}
}

func TestTruncateDeletesWholeLedgers(t *testing.T) {
	c, meta := newEnv(t)
	l := openLog(t, c, meta, "log-trunc", 100)
	var addrs []Address
	for i := 0; i < 10; i++ {
		a, err := l.Append(bytes.Repeat([]byte("y"), 60))
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	before := l.RetainedLedgers()
	if err := l.Truncate(addrs[len(addrs)-1]); err != nil {
		t.Fatal(err)
	}
	after := l.RetainedLedgers()
	if after >= before {
		t.Fatalf("truncation freed nothing: %d -> %d ledgers", before, after)
	}
	// Replay starts after the truncation point's ledger boundary.
	entries, err := l.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 || len(entries) >= 10 {
		t.Fatalf("replay after truncate: %d entries", len(entries))
	}
	for _, e := range entries {
		if e.Addr.Less(addrs[len(addrs)-1]) && e.Addr.LedgerSeq != addrs[len(addrs)-1].LedgerSeq {
			t.Fatalf("entry %v should have been truncated", e.Addr)
		}
	}
}

func TestTruncateIsMonotonic(t *testing.T) {
	c, meta := newEnv(t)
	l := openLog(t, c, meta, "log-mono", 50)
	var last Address
	for i := 0; i < 8; i++ {
		a, err := l.Append(bytes.Repeat([]byte("z"), 60))
		if err != nil {
			t.Fatal(err)
		}
		last = a
	}
	if err := l.Truncate(last); err != nil {
		t.Fatal(err)
	}
	// Truncating at an older address is a no-op, not an error.
	if err := l.Truncate(Address{}); err != nil {
		t.Fatal(err)
	}
}

func TestSecondOpenFencesFirst(t *testing.T) {
	c, meta := newEnv(t)
	l1 := openLog(t, c, meta, "log-fence", 0)
	if _, err := l1.Append([]byte("from-1")); err != nil {
		t.Fatal(err)
	}
	l2 := openLog(t, c, meta, "log-fence", 0)
	if l2.Epoch() <= l1.Epoch() {
		t.Fatalf("epoch did not advance: %d then %d", l1.Epoch(), l2.Epoch())
	}
	// The first instance can no longer append (fenced ledger or fenced
	// metadata CAS, whichever it hits first).
	if _, err := l1.Append([]byte("stale")); err == nil {
		t.Fatal("fenced writer appended successfully")
	}
	// The first instance cannot truncate either.
	if err := l1.Truncate(Address{LedgerSeq: 1}); !errors.Is(err, ErrFenced) && err != nil {
		// Acceptable: ErrFenced; anything else only if truncation was a
		// no-op (nothing to free).
		t.Logf("truncate by fenced writer: %v", err)
	}
	// The new instance sees the old data and continues.
	entries, err := l2.ReadAll()
	if err != nil || len(entries) != 1 || string(entries[0].Data) != "from-1" {
		t.Fatalf("replay on new instance: %v, %v", entries, err)
	}
	if _, err := l2.Append([]byte("from-2")); err != nil {
		t.Fatal(err)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	c, meta := newEnv(t)
	l := openLog(t, c, meta, "log-close", 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestConcurrentAppendsOrdered(t *testing.T) {
	c, meta := newEnv(t)
	l := openLog(t, c, meta, "log-conc", 1<<20)
	const n = 200
	var mu sync.Mutex
	addrs := make([]Address, 0, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		l.AppendAsync([]byte(fmt.Sprintf("%04d", i)), func(a Address, err error) {
			if err == nil {
				mu.Lock()
				addrs = append(addrs, a)
				mu.Unlock()
			}
			wg.Done()
		})
	}
	wg.Wait()
	if len(addrs) != n {
		t.Fatalf("%d appends acknowledged, want %d", len(addrs), n)
	}
	entries, err := l.ReadAll()
	if err != nil || len(entries) != n {
		t.Fatalf("replay: %d, %v", len(entries), err)
	}
}

func TestAddressOrdering(t *testing.T) {
	a := Address{LedgerSeq: 0, Entry: 5}
	b := Address{LedgerSeq: 1, Entry: 0}
	cAddr := Address{LedgerSeq: 1, Entry: 1}
	if !a.Less(b) || !b.Less(cAddr) || b.Less(a) || a.Less(a) {
		t.Fatal("Address.Less is not a strict order over (ledgerSeq, entry)")
	}
	if a.String() == "" {
		t.Fatal("empty String()")
	}
}
