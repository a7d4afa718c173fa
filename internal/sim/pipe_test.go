package sim

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// pipePair dials a fresh listener over a link shaped by cfg and accepts
// the peer end.
func pipePair(t *testing.T, cfg LinkConfig) (client, server net.Conn) {
	t.Helper()
	n := NewNet()
	ln := n.Listen()
	t.Cleanup(func() { _ = ln.Close() })
	client, server = dialAccept(t, n.Dialer(cfg), ln)
	t.Cleanup(func() { _ = client.Close(); _ = server.Close() })
	return client, server
}

// dialAccept dials ln's address and returns both ends.
func dialAccept(t *testing.T, dial func(string) (net.Conn, error), ln *Listener) (client, server net.Conn) {
	t.Helper()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	client, err := dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	return client, <-accepted
}

func TestPipeFIFOAcrossSmallWrites(t *testing.T) {
	client, server := pipePair(t, LinkConfig{Latency: 10 * time.Microsecond})
	const n = 10_000
	go func() {
		var b [4]byte
		for i := uint32(0); i < n; i++ {
			binary.BigEndian.PutUint32(b[:], i)
			if _, err := client.Write(b[:]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var b [4]byte
	for i := uint32(0); i < n; i++ {
		if _, err := io.ReadFull(server, b[:]); err != nil {
			t.Fatal(err)
		}
		if got := binary.BigEndian.Uint32(b[:]); got != i {
			t.Fatalf("write %d read as %d", i, got)
		}
	}
}

func TestPipeDeliveryWaitsOutLatency(t *testing.T) {
	const latency = 20 * time.Millisecond
	client, server := pipePair(t, LinkConfig{Latency: latency})
	start := time.Now()
	if _, err := server.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := io.ReadFull(client, b[:]); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < latency {
		t.Fatalf("delivered after %v, before the %v one-way latency", elapsed, latency)
	}
}

func TestPipeBandwidthBoundsTransfer(t *testing.T) {
	const bw = 10e6 // 10 MB/s
	client, server := pipePair(t, LinkConfig{Bandwidth: bw})
	const n = 1 << 20 // 1 MiB → ≥ 105 ms
	start := time.Now()
	go func() {
		chunk := make([]byte, 64<<10)
		for sent := 0; sent < n; sent += len(chunk) {
			if _, err := client.Write(chunk); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	if _, err := io.ReadFull(server, make([]byte, n)); err != nil {
		t.Fatal(err)
	}
	if elapsed, floor := time.Since(start), time.Duration(n/bw*float64(time.Second)); elapsed < floor {
		t.Fatalf("%d bytes at %.0f B/s took %v, under %v", n, bw, elapsed, floor)
	}
}

func TestPipeCloseDeliversBytesThenEOF(t *testing.T) {
	client, server := pipePair(t, LinkConfig{Latency: time.Millisecond})
	if _, err := client.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(server)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if string(got) != "hello" {
		t.Fatalf("read %q before EOF, want %q", got, "hello")
	}
	if _, err := client.Read(make([]byte, 1)); err == nil {
		t.Fatal("read on the closed end succeeded")
	}
}

func TestPipeWriteAfterCloseFails(t *testing.T) {
	client, _ := pipePair(t, LinkConfig{})
	_ = client.Close()
	if _, err := client.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("write on a closed end: %v, want net.ErrClosed", err)
	}
}

// TestNetListenersHaveTheirOwnAddresses: two listeners in one Net get
// distinct addresses, and a dial reaches the listener it names.
func TestNetListenersHaveTheirOwnAddresses(t *testing.T) {
	n := NewNet()
	a, b := n.Listen(), n.Listen()
	defer a.Close()
	defer b.Close()
	if a.Addr().String() == b.Addr().String() {
		t.Fatalf("two listeners share the address %s", a.Addr())
	}
	dial := n.Dialer(LinkConfig{})
	for _, ln := range []*Listener{b, a} {
		client, server := dialAccept(t, dial, ln)
		if _, err := client.Write([]byte(ln.Addr().String())); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(ln.Addr().String()))
		if _, err := io.ReadFull(server, got); err != nil {
			t.Fatal(err)
		}
		if string(got) != ln.Addr().String() || server.LocalAddr().String() != ln.Addr().String() {
			t.Fatalf("dial to %s was accepted by %s", got, server.LocalAddr())
		}
		_ = client.Close()
		_ = server.Close()
	}
}

func TestPipeDialAfterListenerCloseFails(t *testing.T) {
	n := NewNet()
	ln := n.Listen()
	_ = ln.Close()
	if _, err := n.Dialer(LinkConfig{})(ln.Addr().String()); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Dial after Close: %v, want net.ErrClosed", err)
	}
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Accept after Close: %v, want net.ErrClosed", err)
	}
}
