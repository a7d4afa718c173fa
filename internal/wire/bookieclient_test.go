package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/bookkeeper"
	"github.com/pravega-go/pravega/internal/cluster"
)

// requestCounter is a TCP proxy in front of a server that counts the
// requests of each type passing from client to server.
type requestCounter struct {
	mu    sync.Mutex
	n     map[MessageType]int
	conns []net.Conn
}

func countRequests(t *testing.T, addr string) (string, *requestCounter) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rc := &requestCounter{n: make(map[MessageType]int)}
	t.Cleanup(func() {
		_ = ln.Close()
		rc.mu.Lock()
		defer rc.mu.Unlock()
		for _, c := range rc.conns {
			_ = c.Close()
		}
	})
	go func() {
		for {
			cc, err := ln.Accept()
			if err != nil {
				return
			}
			sc, err := net.Dial("tcp", addr)
			if err != nil {
				_ = cc.Close()
				continue
			}
			rc.mu.Lock()
			rc.conns = append(rc.conns, cc, sc)
			rc.mu.Unlock()
			go func() { _, _ = io.Copy(cc, sc) }()
			go func() {
				for {
					typ, id, body, err := readMessage(cc)
					if err != nil {
						_ = sc.Close()
						return
					}
					rc.mu.Lock()
					rc.n[typ]++
					rc.mu.Unlock()
					if writeFrame(sc, typ, id, rawBody(body)) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), rc
}

func (rc *requestCounter) count(t MessageType) int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.n[t]
}

// bookieHost serves three in-process bookies over a loopback coord server,
// as the coord role does, and returns them with a ledger client that
// reaches them through RemoteBookies on one connection behind a request
// counter.
func bookieHost(t *testing.T) (map[string]*bookkeeper.Bookie, *bookkeeper.Client, *RemoteStore, *requestCounter) {
	t.Helper()
	bookies := make(map[string]*bookkeeper.Bookie)
	served := make(map[string]bookkeeper.Node)
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("bookie-%d", i)
		b := bookkeeper.NewBookie(bookkeeper.BookieConfig{ID: id})
		t.Cleanup(b.Close)
		bookies[id], served[id] = b, b
	}
	srv := serveConfig(t, ServerConfig{Coord: cluster.NewStore(), Bookies: served})
	addr, rc := countRequests(t, srv.Addr())
	rs, err := DialCoord(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rs.Close)
	bk, err := bookkeeper.NewClient(bookkeeper.ClientConfig{Meta: rs})
	if err != nil {
		t.Fatal(err)
	}
	for id := range bookies {
		bk.RegisterBookie(NewRemoteBookie(id, rs))
	}
	return bookies, bk, rs, rc
}

// ledgerAppend is the blocking form of LedgerHandle.AppendAsync.
func ledgerAppend(t *testing.T, h *bookkeeper.LedgerHandle, data []byte) (int64, error) {
	t.Helper()
	type res struct {
		id  int64
		err error
	}
	ch := make(chan res, 1)
	h.AppendAsync(data, func(id int64, err error) { ch <- res{id, err} })
	select {
	case r := <-ch:
		return r.id, r.err
	case <-time.After(10 * time.Second):
		t.Fatal("ledger append never completed")
		return -1, nil
	}
}

// An entry whose write set lives in one coord process crosses the
// connection once: N appends are N MsgBookieAdd requests, not one per
// bookie, and every bookie holds every entry once the append is acked.
func TestBookieAddCrossesOncePerHost(t *testing.T) {
	bookies, bk, _, rc := bookieHost(t)
	h, err := bk.CreateLedger(bookkeeper.DefaultReplication())
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	var wg sync.WaitGroup
	errs := make(chan error, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		h.AppendAsync([]byte(fmt.Sprintf("entry-%03d", i)), func(_ int64, err error) {
			if err != nil {
				errs <- err
			}
			wg.Done()
		})
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := rc.count(MsgBookieAdd); got != n {
		t.Fatalf("%d appends sent %d MsgBookieAdd requests, want %d", n, got, n)
	}
	if lac := h.LastAddConfirmed(); lac != n-1 {
		t.Fatalf("last add confirmed %d, want %d", lac, n-1)
	}
	for id, b := range bookies {
		for e := int64(0); e < n; e++ {
			data, err := b.ReadEntry(h.ID(), e)
			if want := fmt.Sprintf("entry-%03d", e); err != nil || string(data) != want {
				t.Fatalf("%s entry %d: %q, %v; want %q", id, e, data, err, want)
			}
		}
	}
}

// One request, one outcome per named bookie: a fenced or unknown bookie
// fails alone, and the ledger counts the outcomes against its quorums as it
// would separate replies.
func TestBookieAddOutcomesPerBookie(t *testing.T) {
	bookies, bk, rs, rc := bookieHost(t)
	const ledger = 1 << 40 // a ledger no handle writes
	if _, err := bookies["bookie-1"].Fence(ledger); err != nil {
		t.Fatal(err)
	}
	outcomes := func(names ...string) []error {
		t.Helper()
		ch := make(chan error, len(names))
		rs.AddEntries(names, ledger, 0, [][]byte{[]byte("x")}, func(err error) { ch <- err })
		out := make([]error, len(names))
		for i := range out {
			select {
			case out[i] = <-ch:
			case <-time.After(10 * time.Second):
				t.Fatalf("%d of %d outcomes", i, len(names))
			}
		}
		return out
	}
	before := rc.count(MsgBookieAdd)
	if got := outcomes("bookie-0", "bookie-1", "bookie-2"); got[0] != nil || !errors.Is(got[1], bookkeeper.ErrFenced) || got[2] != nil {
		t.Fatalf("outcomes with bookie-1 fenced: %v", got)
	}
	if got := outcomes("bookie-0", "no-such-bookie", "bookie-2"); got[0] != nil || !errors.Is(got[1], bookkeeper.ErrBookieDown) || got[2] != nil {
		t.Fatalf("outcomes naming an unknown bookie: %v", got)
	}
	if got := rc.count(MsgBookieAdd) - before; got != 2 {
		t.Fatalf("two multi-bookie adds sent %d requests", got)
	}

	h, err := bk.CreateLedger(bookkeeper.DefaultReplication())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bookies["bookie-0"].Fence(h.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := ledgerAppend(t, h, []byte("one fenced")); err != nil {
		t.Fatalf("append with one of three bookies fenced: %v", err)
	}
	if _, err := bookies["bookie-2"].Fence(h.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := ledgerAppend(t, h, []byte("two fenced")); !errors.Is(err, bookkeeper.ErrFenced) {
		t.Fatalf("append with two of three bookies fenced: %v, want ErrFenced", err)
	}
}
