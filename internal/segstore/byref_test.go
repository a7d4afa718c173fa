package segstore

import (
	"bytes"
	"sync"
	"testing"

	"github.com/pravega-go/pravega/internal/bookkeeper"
	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/lts"
)

// An append's payload travels by reference from the caller to the WAL and
// to LTS: the store's one copy of it is the block cache's. These tests pin
// the two hand-offs inside the container.

// partsHost is a bookkeeper.Host in front of local bookies that keeps every
// part of every entry it is handed.
type partsHost struct {
	bookies map[string]*bookkeeper.Bookie

	mu    sync.Mutex
	parts [][]byte
}

func (h *partsHost) AddEntries(ids []string, ledgerID, entryID int64, parts [][]byte, cb func(error)) {
	h.mu.Lock()
	h.parts = append(h.parts, parts...)
	h.mu.Unlock()
	entry := bytes.Join(parts, nil)
	for _, id := range ids {
		h.bookies[id].AddEntry(ledgerID, entryID, entry, cb)
	}
}

// hostedBookie is a local bookie reached through a partsHost, the way a
// store reaches the bookies its coord process hosts.
type hostedBookie struct {
	*bookkeeper.Bookie
	host *partsHost
}

func (b hostedBookie) Host() bookkeeper.Host { return b.host }

// partsLTS records the parts of every chunk write.
type partsLTS struct {
	lts.ChunkStorage

	mu    sync.Mutex
	parts [][]byte
}

func (l *partsLTS) Write(name string, offset int64, data ...[]byte) error {
	l.mu.Lock()
	l.parts = append(l.parts, data...)
	l.mu.Unlock()
	return l.ChunkStorage.Write(name, offset, data...)
}

// aliased reports whether one of parts is payload itself, not a copy.
func aliased(parts [][]byte, payload []byte) bool {
	for _, p := range parts {
		if len(p) == len(payload) && &p[0] == &payload[0] {
			return true
		}
	}
	return false
}

// byRefPayloads appends three distinct payloads to a fresh segment of c and
// waits for their acknowledgements.
func byRefPayloads(t *testing.T, c *Container) [][]byte {
	t.Helper()
	const seg = "s/byref/0.#epoch.0"
	if err := c.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	var acks []<-chan AppendResult
	for i := 0; i < 3; i++ {
		p := bytes.Repeat([]byte{byte('a' + i)}, 1000+i)
		payloads = append(payloads, p)
		acks = append(acks, appendAsync(c, seg, p, "w", int64(i+1)))
	}
	for i, ack := range acks {
		if r := <-ack; r.Err != nil {
			t.Fatalf("append %d: %v", i, r.Err)
		}
	}
	return payloads
}

// TestWALFramePartsAliasPayloads: the frame a container hands its WAL is
// the ops' headers and, as parts of their own, the ops' payloads, which the
// ledger passes to the bookies' Host untouched.
func TestWALFramePartsAliasPayloads(t *testing.T) {
	meta := cluster.NewStore()
	bk, err := bookkeeper.NewClient(bookkeeper.ClientConfig{Meta: meta})
	if err != nil {
		t.Fatal(err)
	}
	host := &partsHost{bookies: make(map[string]*bookkeeper.Bookie)}
	for i := 0; i < 3; i++ {
		b := bookkeeper.NewBookie(bookkeeper.BookieConfig{ID: string(rune('a' + i))})
		t.Cleanup(b.Close)
		host.bookies[b.ID()] = b
		bk.RegisterBookie(hostedBookie{Bookie: b, host: host})
	}
	env := &testEnv{meta: meta, bk: bk, lts: lts.NewMemory()}
	c := newTestContainer(t, env, 0)

	payloads := byRefPayloads(t, c)
	host.mu.Lock()
	defer host.mu.Unlock()
	for i, p := range payloads {
		if !aliased(host.parts, p) {
			t.Errorf("payload %d reached the bookies' host as a copy", i)
		}
	}
}

// TestFlushHandsQueuedSlicesToLTS: the storage writer writes a segment's
// queued appends to LTS as they are, one part each, with no gather buffer.
func TestFlushHandsQueuedSlicesToLTS(t *testing.T) {
	env := newTestEnv(t)
	rec := &partsLTS{ChunkStorage: env.lts}
	cfg := env.containerConfig(0)
	cfg.LTS = rec
	c, err := NewContainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	payloads := byRefPayloads(t, c)
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for i, p := range payloads {
		if !aliased(rec.parts, p) {
			t.Errorf("payload %d reached LTS as a copy", i)
		}
	}
}
