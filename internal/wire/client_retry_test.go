package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/placement"
	"github.com/pravega-go/pravega/internal/segstore"
)

// newServer serves the coordination and cluster-info planes on loopback: a
// server the storeConn tests can dial and call.
func newServer(t *testing.T) *Server {
	t.Helper()
	meta := cluster.NewStore()
	if err := segstore.CreatePlacementRoots(meta); err != nil {
		t.Fatal(err)
	}
	return serveConfig(t, ServerConfig{Coord: meta, Placement: placement.CoordSource{Coord: meta, Total: 1}})
}

// TestAcquireWakesPromptlyOnReconnect pins the broadcast semantics of
// storeConn.acquire: a waiter parked on a disconnected storeConn must wake
// as soon as the reconnect lands, not after a backoff-sized polling
// interval. The dial hook blocks the reconnect loop until the test opens
// the gate, so the wake latency is measured from a known instant.
func TestAcquireWakesPromptlyOnReconnect(t *testing.T) {
	srv := newServer(t)
	gate := make(chan struct{})
	c := newClient(srv.Addr(), ClientConfig{SyncRetryWindow: 30 * time.Second}, func(addr string) (net.Conn, error) {
		<-gate
		return DialTCP(addr)
	})
	c.firstBackoff = time.Second // poll-based waiting would sleep this long
	conn, err := Dial(DialTCP, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sc := newStoreConn(c, conn, srv.Addr())
	defer sc.Close()
	sc.fault(conn) // reconnect loop starts and blocks in the gated dial

	type result struct {
		conn *Conn
		err  error
	}
	got := make(chan result, 1)
	go func() {
		conn, err := sc.acquire(time.Now().Add(10 * time.Second))
		got <- result{conn, err}
	}()
	// Let the waiter settle into its wait (mid-sleep, under poll semantics).
	time.Sleep(300 * time.Millisecond)
	start := time.Now()
	close(gate)
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatalf("acquire: %v", r.err)
		}
		if r.conn == nil {
			t.Fatal("acquire returned nil conn")
		}
		if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
			t.Fatalf("acquire woke %v after reconnect; want immediate (< 500ms)", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("acquire never woke after reconnect")
	}
}

// TestAttemptReplacesIdleDeadConn pins that a routed attempt which finds
// its connection already dead goes out on the reconnected one within the
// same attempt. The connection died idle — no operation was in flight to
// observe the loss, so nothing faulted it. If the attempt failed instead,
// every attempt under connection churn would be spent discovering a dead
// connection, and the router's retry — one backoff later — would find the
// reconnected one dead again (a 30 s livelock the nemesis soak hit).
func TestAttemptReplacesIdleDeadConn(t *testing.T) {
	srv := newServer(t)
	c := newClient(srv.Addr(), ClientConfig{SyncRetryWindow: 5 * time.Second}, DialTCP)
	conn, err := Dial(DialTCP, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sc := newStoreConn(c, conn, srv.Addr())
	defer sc.Close()
	_ = conn.Close() // dies idle: the storeConn still holds it as live
	if _, err := sc.once(MsgClusterInfo, struct{}{}); err != nil {
		t.Fatalf("attempt on an idle-dead connection: %v", err)
	}
	if got := sc.current(); got == nil || got == conn {
		t.Fatal("the dead connection was not replaced")
	}
}

// TestAcquireObservesClose pins that close() wakes parked waiters instead
// of leaving them to run out their deadline.
func TestAcquireObservesClose(t *testing.T) {
	srv := newServer(t)
	gate := make(chan struct{}) // never opened: reconnect loop stays blocked
	c := newClient(srv.Addr(), ClientConfig{SyncRetryWindow: 30 * time.Second}, func(string) (net.Conn, error) {
		<-gate
		return nil, errors.New("gated")
	})
	conn, err := Dial(DialTCP, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sc := newStoreConn(c, conn, srv.Addr())
	sc.fault(conn)

	got := make(chan error, 1)
	go func() {
		_, err := sc.acquire(time.Now().Add(10 * time.Second))
		got <- err
	}()
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	sc.Close()
	select {
	case err := <-got:
		if err == nil {
			t.Fatal("acquire returned a conn from a closed storeConn")
		}
		if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
			t.Fatalf("acquire observed close after %v; want immediate", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("acquire never observed close")
	}
	close(gate) // release the parked reconnect goroutine
}

// TestFailAllDeliversOffCallerGoroutine pins that tearing a connection
// down never delivers pending callbacks synchronously on the closing
// goroutine. The event writer faults connections from inside sendBatch —
// while holding the segment lock its completion callbacks take — so a
// synchronous failAll self-deadlocks: Close → failAll → callback →
// lock acquisition that the closing goroutine's caller already holds.
func TestFailAllDeliversOffCallerGoroutine(t *testing.T) {
	// A server that accepts and never replies, so the call stays pending.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, conn)
	}()
	conn, err := Dial(DialTCP, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex // the lock the callback takes (sw.mu in the writer)
	delivered := make(chan struct{})
	req := AppendReq{Segment: "s/0", Data: []byte("x"), CondOffset: -1}
	if err := conn.CallAsyncFunc(MsgAppend, &req, func(Reply) {
		mu.Lock()
		//lint:ignore SA2001 acquiring proves delivery happened off the closing goroutine
		mu.Unlock()
		close(delivered)
	}); err != nil {
		t.Fatal(err)
	}

	mu.Lock() // the caller holds the callback's lock, like sendBatch does
	closed := make(chan struct{})
	go func() {
		_ = conn.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		mu.Unlock()
		t.Fatal("Close blocked: pending callback delivered synchronously on the closing goroutine")
	}
	mu.Unlock()
	select {
	case <-delivered:
	case <-time.After(5 * time.Second):
		t.Fatal("pending callback never delivered after Close")
	}
}

// scriptedConn is a net.Conn whose Write and Read each block until the test
// hands them the error to fail with.
type scriptedConn struct {
	net.Conn               // nil: the test reaches only Read and Write
	inWrite  chan struct{} // closed when Write is entered
	writeErr chan error
	readErr  chan error
}

func (c *scriptedConn) Write([]byte) (int, error) {
	close(c.inWrite)
	return 0, <-c.writeErr
}

func (c *scriptedConn) Read([]byte) (int, error) { return 0, <-c.readErr }

// TestSendFailureReportedOnce pins CallAsyncFunc's "cb fires exactly once"
// when a request loses its connection twice over: the read loop dies while
// the request is still inside its write, failAll fails the registered
// request through the callback, and then the write fails too. Returning the
// write error on top of that made storeConn.AppendAfter fail the same batch
// a second time — the event writer parked it twice and the second
// WriteFuture.complete closed a closed channel.
func TestSendFailureReportedOnce(t *testing.T) {
	nc := &scriptedConn{
		inWrite:  make(chan struct{}),
		writeErr: make(chan error),
		readErr:  make(chan error),
	}
	c, _ := Dial(func(string) (net.Conn, error) { return nc, nil }, "")

	var reported atomic.Int32
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		req := AppendReq{Segment: "s/0", Data: []byte("x"), CondOffset: -1}
		if err := c.CallAsyncFunc(MsgAppend, &req, func(Reply) { reported.Add(1) }); err != nil {
			reported.Add(1)
		}
	}()
	<-nc.inWrite               // registered, and blocked flushing the frame
	nc.readErr <- io.EOF       // the read loop dies first ...
	for reported.Load() == 0 { // ... and failAll has failed the request
		time.Sleep(time.Millisecond)
	}
	nc.writeErr <- io.ErrClosedPipe // only now does the write fail
	<-sent
	if n := reported.Load(); n != 1 {
		t.Fatalf("one failed append reported %d times, want 1", n)
	}
}

// TestLongPollGaugeCountsOnlyWaitingReads parks reads on a server that never
// answers: a zero-wait read (state synchronizer, KV table, merge source)
// must leave pravega_wire_client_longpoll_reads alone, a read with a wait
// must raise it while it is out.
func TestLongPollGaugeCountsOnlyWaitingReads(t *testing.T) {
	sc, received := silentStore(t)

	var wg sync.WaitGroup
	read := func(wait time.Duration) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = sc.ReadCtx(context.Background(), "s/0", 0, 64, wait)
		}()
		<-received
	}
	base := mcLongPolls.Value()
	read(0)
	time.Sleep(20 * time.Millisecond)
	if got := mcLongPolls.Value() - base; got != 0 {
		t.Errorf("a zero-wait read moved the long-poll gauge by %d", got)
	}
	read(time.Minute)
	for deadline := time.Now().Add(5 * time.Second); mcLongPolls.Value()-base != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("a waiting read moved the long-poll gauge by %d, want 1", mcLongPolls.Value()-base)
		}
	}
	sc.Close() // fails both parked reads
	wg.Wait()
	if got := mcLongPolls.Value() - base; got != 0 {
		t.Errorf("long-poll gauge off by %d after the reads returned", got)
	}
}

// silentStore is a storeConn on a server that reads request frames and
// never answers; the channel signals each frame the server has read.
func silentStore(t *testing.T) (*storeConn, <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	received := make(chan struct{}, 2)
	go func() {
		srv, err := ln.Accept()
		if err != nil {
			return
		}
		defer srv.Close()
		r := bufio.NewReader(srv)
		hdr := make([]byte, headerSize)
		for {
			if _, err := io.ReadFull(r, hdr); err != nil {
				return
			}
			if _, err := r.Discard(int(binary.BigEndian.Uint32(hdr[0:4]))); err != nil {
				return
			}
			received <- struct{}{}
		}
	}()
	addr := ln.Addr().String()
	conn, err := Dial(DialTCP, addr)
	if err != nil {
		t.Fatal(err)
	}
	return newStoreConn(newClient(addr, ClientConfig{SyncRetryWindow: time.Second}, DialTCP), conn, addr), received
}

// TestCancelledReadReturnsWithoutServer pins that a read whose context is
// cancelled returns at once, even from a server that never answers: the
// reader abandons the reply rather than waiting for the server to end the
// wait. A fetcher stop (rebalance release, Reader.Close) must not hang on a
// stalled store.
func TestCancelledReadReturnsWithoutServer(t *testing.T) {
	sc, received := silentStore(t)
	defer sc.Close()
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, err := sc.ReadCtx(ctx, "s/0", 0, 64, time.Minute)
		got <- err
	}()
	<-received
	cancel()
	select {
	case err := <-got:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled read returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled read still blocked after 2s")
	}
}
