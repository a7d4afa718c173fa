package bookkeeper

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"github.com/pravega-go/pravega/internal/cluster"
)

// LedgerBytes reports the bytes stored for a ledger (test helper).
func (b *Bookie) LedgerBytes(ledgerID int64) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	l := b.ledgers[ledgerID]
	if l == nil {
		return 0
	}
	var n int64
	for _, e := range l.entries {
		n += int64(e.size)
	}
	return n
}

// Append writes data and blocks for the ack.
func (h *LedgerHandle) Append(data []byte) (int64, error) {
	type res struct {
		id  int64
		err error
	}
	ch := make(chan res, 1)
	h.AppendAsync(data, func(id int64, err error) { ch <- res{id, err} })
	r := <-ch
	return r.id, r.err
}

// Err returns the sticky error, if the handle has failed.
func (h *LedgerHandle) Err() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.err
}

func newTestClient(t *testing.T, bookies int) (*Client, []*Bookie) {
	t.Helper()
	meta := cluster.NewStore()
	c, err := NewClient(ClientConfig{Meta: meta})
	if err != nil {
		t.Fatal(err)
	}
	var bs []*Bookie
	for i := 0; i < bookies; i++ {
		b := NewBookie(BookieConfig{ID: fmt.Sprintf("b%d", i)})
		bs = append(bs, b)
		c.RegisterBookie(b)
	}
	t.Cleanup(func() {
		for _, b := range bs {
			b.Close()
		}
	})
	return c, bs
}

func TestReplicationConfigValidation(t *testing.T) {
	cases := []struct {
		rep ReplicationConfig
		ok  bool
	}{
		{DefaultReplication(), true},
		{ReplicationConfig{Ensemble: 1, WriteQuorum: 1, AckQuorum: 1}, true},
		{ReplicationConfig{Ensemble: 3, WriteQuorum: 4, AckQuorum: 2}, false},
		{ReplicationConfig{Ensemble: 3, WriteQuorum: 2, AckQuorum: 3}, false},
		{ReplicationConfig{Ensemble: 0, WriteQuorum: 0, AckQuorum: 0}, false},
	}
	for _, tc := range cases {
		if err := tc.rep.Validate(); (err == nil) != tc.ok {
			t.Fatalf("Validate(%+v) = %v", tc.rep, err)
		}
	}
}

func TestLedgerAppendRead(t *testing.T) {
	c, _ := newTestClient(t, 3)
	h, err := c.CreateLedger(DefaultReplication())
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 20; i++ {
		data := []byte(fmt.Sprintf("entry-%02d", i))
		id, err := h.Append(data)
		if err != nil {
			t.Fatal(err)
		}
		if id != int64(i) {
			t.Fatalf("entry id %d, want %d", id, i)
		}
		want = append(want, data)
	}
	if h.LastAddConfirmed() != 19 {
		t.Fatalf("LAC = %d", h.LastAddConfirmed())
	}
	md, err := c.Metadata(h.ID())
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		got, err := c.ReadEntry(md, int64(i))
		if err != nil || !bytes.Equal(got, w) {
			t.Fatalf("ReadEntry(%d) = %q, %v", i, got, err)
		}
	}
	if _, err := c.ReadEntry(md, 99); err == nil {
		t.Fatal("read past end succeeded")
	}
}

func TestLedgerReplicationToQuorum(t *testing.T) {
	c, bs := newTestClient(t, 3)
	h, err := c.CreateLedger(DefaultReplication())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Append(bytes.Repeat([]byte("r"), 100)); err != nil {
		t.Fatal(err)
	}
	// writeQuorum=3: every bookie holds the entry (eventually; ack at 2).
	covered := 0
	for _, b := range bs {
		if b.LedgerBytes(h.ID()) > 0 {
			covered++
		}
	}
	if covered < 2 {
		t.Fatalf("entry on %d bookies, want ≥2", covered)
	}
}

func TestAppendSurvivesOneBookieCrash(t *testing.T) {
	c, bs := newTestClient(t, 3)
	h, err := c.CreateLedger(DefaultReplication())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Append([]byte("before")); err != nil {
		t.Fatal(err)
	}
	bs[0].Close()
	// ackQuorum=2 of 3: appends still succeed with one bookie down.
	if _, err := h.Append([]byte("after")); err != nil {
		t.Fatalf("append with one bookie down: %v", err)
	}
}

func TestAppendFailsBelowAckQuorum(t *testing.T) {
	c, bs := newTestClient(t, 3)
	h, err := c.CreateLedger(DefaultReplication())
	if err != nil {
		t.Fatal(err)
	}
	bs[0].Close()
	bs[1].Close()
	if _, err := h.Append([]byte("x")); err == nil {
		t.Fatal("append succeeded below ack quorum")
	}
	if h.Err() == nil {
		t.Fatal("handle must be sticky-failed")
	}
}

func TestFencingRejectsOldWriter(t *testing.T) {
	c, _ := newTestClient(t, 3)
	h, err := c.CreateLedger(DefaultReplication())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	md, err := c.OpenLedgerRecovery(h.ID())
	if err != nil {
		t.Fatal(err)
	}
	if md.State != LedgerClosed || md.LastEntry != 0 {
		t.Fatalf("recovered metadata %+v", md)
	}
	if _, err := h.Append([]byte("two")); !errors.Is(err, ErrFenced) {
		t.Fatalf("old writer append: %v", err)
	}
}

func TestRecoveryOfClosedLedgerIsIdempotent(t *testing.T) {
	c, _ := newTestClient(t, 3)
	h, err := c.CreateLedger(DefaultReplication())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Append([]byte("z")); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	md1, err := c.OpenLedgerRecovery(h.ID())
	if err != nil {
		t.Fatal(err)
	}
	md2, err := c.OpenLedgerRecovery(h.ID())
	if err != nil || md1.LastEntry != md2.LastEntry {
		t.Fatalf("recovery not idempotent: %+v vs %+v (%v)", md1, md2, err)
	}
}

func TestDeleteLedger(t *testing.T) {
	c, bs := newTestClient(t, 3)
	h, err := c.CreateLedger(DefaultReplication())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Append(bytes.Repeat([]byte("d"), 64)); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteLedger(h.ID()); err != nil {
		t.Fatal(err)
	}
	for _, b := range bs {
		if b.LedgerBytes(h.ID()) != 0 {
			t.Fatal("bookie still holds deleted ledger bytes")
		}
	}
	if _, err := c.Metadata(h.ID()); !errors.Is(err, ErrNoLedger) {
		t.Fatalf("metadata after delete: %v", err)
	}
	// Deleting twice is fine.
	if err := c.DeleteLedger(h.ID()); err != nil {
		t.Fatalf("second delete: %v", err)
	}
}

func TestCreateLedgerNeedsEnoughBookies(t *testing.T) {
	c, _ := newTestClient(t, 2)
	if _, err := c.CreateLedger(DefaultReplication()); !errors.Is(err, ErrNotEnough) {
		t.Fatalf("ensemble 3 with 2 bookies: %v", err)
	}
}

func TestBookieDiscardDataSynthesizesReads(t *testing.T) {
	meta := cluster.NewStore()
	c, err := NewClient(ClientConfig{Meta: meta})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBookie(BookieConfig{ID: "x", DiscardData: true})
	defer b.Close()
	c.RegisterBookie(b)
	h, err := c.CreateLedger(ReplicationConfig{Ensemble: 1, WriteQuorum: 1, AckQuorum: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Append([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	md, _ := c.Metadata(h.ID())
	got, err := c.ReadEntry(md, 0)
	if err != nil || len(got) != 10 {
		t.Fatalf("ReadEntry = %d bytes, %v (size must be preserved)", len(got), err)
	}
}

func TestPipelinedAppendsKeepAddresses(t *testing.T) {
	c, _ := newTestClient(t, 3)
	h, err := c.CreateLedger(DefaultReplication())
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	var wg sync.WaitGroup
	ids := make([]int64, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		h.AppendAsync([]byte(fmt.Sprintf("%03d", i)), func(id int64, err error) {
			if err == nil {
				ids[i] = id
			} else {
				ids[i] = -1
			}
			wg.Done()
		})
	}
	wg.Wait()
	for i, id := range ids {
		if id != int64(i) {
			t.Fatalf("append %d got entry id %d (submission order must define ids)", i, id)
		}
	}
}

// TestQuorumArithmeticProperty: an entry is acknowledged once ackQuorum
// bookies hold it, so recovery must fence ensemble−ackQuorum+1 bookies to
// be sure of intersecting every acknowledged entry — i.e. recovery
// tolerates at most ackQuorum−1 crashed bookies, and must refuse (rather
// than silently lose data) beyond that.
func TestQuorumArithmeticProperty(t *testing.T) {
	f := func(eRaw, aRaw uint8, down uint8) bool {
		e := int(eRaw%4) + 1 // 1..4 bookies
		a := int(aRaw)%e + 1 // 1..e
		rep := ReplicationConfig{Ensemble: e, WriteQuorum: e, AckQuorum: a}
		if rep.Validate() != nil {
			return true
		}
		crash := int(down) % (e + 1)

		meta := cluster.NewStore()
		c, err := NewClient(ClientConfig{Meta: meta})
		if err != nil {
			return false
		}
		var bs []*Bookie
		for i := 0; i < e; i++ {
			b := NewBookie(BookieConfig{ID: fmt.Sprintf("q%d", i)})
			bs = append(bs, b)
			c.RegisterBookie(b)
		}
		defer func() {
			for _, b := range bs {
				b.Close()
			}
		}()
		h, err := c.CreateLedger(rep)
		if err != nil {
			return false
		}
		if _, err := h.Append([]byte("payload")); err != nil {
			return false
		}
		for i := 0; i < crash; i++ {
			bs[i].Close()
		}
		md, err := c.OpenLedgerRecovery(h.ID())
		if crash <= a-1 {
			// Enough survivors to intersect every ack'd entry: recovery
			// must succeed and find the entry.
			return err == nil && md.LastEntry == 0
		}
		// Not enough survivors: recovery must refuse rather than risk
		// silently losing acknowledged entries.
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
