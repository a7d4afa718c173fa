package pravega

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"github.com/pravega-go/pravega/internal/role"
	"github.com/pravega-go/pravega/internal/sim"
	"github.com/pravega-go/pravega/internal/wire"
)

// framesByRole counts the request frames each role's wire server reads, by
// role name and message type.
type framesByRole struct {
	mu sync.Mutex
	n  map[string]map[wire.MessageType]int
}

// wrap returns nw with every role's listener counting what it reads.
func (f *framesByRole) wrap(nw role.Net) role.Net {
	listen := nw.Listen
	nw.Listen = func(name string) (net.Listener, string, error) {
		ln, addr, err := listen(name)
		return countingListener{Listener: ln, name: name, f: f}, addr, err
	}
	return nw
}

func (f *framesByRole) count(name string, t wire.MessageType) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n[name][t]
}

type countingListener struct {
	net.Listener
	name string
	f    *framesByRole
}

// Accept hands the server a connection whose reads are copied, in order,
// to a parser that counts frames.
func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	pr, pw := io.Pipe()
	go func() {
		for {
			frame, err := wire.ReadRawFrame(pr)
			if err != nil {
				_ = pr.CloseWithError(err)
				return
			}
			l.f.mu.Lock()
			if l.f.n[l.name] == nil {
				l.f.n[l.name] = make(map[wire.MessageType]int)
			}
			l.f.n[l.name][wire.RawFrameType(frame)]++
			l.f.mu.Unlock()
		}
	}()
	return teeConn{Conn: c, w: pw}, nil
}

type teeConn struct {
	net.Conn
	w *io.PipeWriter
}

func (c teeConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		_, _ = c.w.Write(p[:n])
	}
	if err != nil {
		_ = c.w.CloseWithError(err)
	}
	return n, err
}

// TestInProcessWriteIsServedByAStore: an in-process System, assembled as
// NewInProcess assembles it, bootstraps from the coord and sends its
// appends to the stores' wire servers, as over TCP. The coord's server
// reads no append.
func TestInProcessWriteIsServedByAStore(t *testing.T) {
	frames := &framesByRole{n: make(map[string]map[wire.MessageType]int)}
	nw := sim.NewNet()
	cl, err := role.StartCluster(frames.wrap(role.SimNet(nw, sim.LinkConfig{})),
		role.ClusterConfig{Coord: role.CoordConfig{Stores: 2, Containers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sys, err := connect(nw.Dialer(sim.LinkConfig{}), cl.Addr(), wire.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	mustCreate(t, sys, "wire", "s", 4)
	w, err := sys.NewWriter(WriterConfig{Scope: "wire", Stream: "s"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 16; i++ {
		if err := w.WriteEvent(fmt.Sprintf("k%d", i), []byte("v")).Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if n := frames.count("coord", wire.MsgAppend); n != 0 {
		t.Fatalf("the coord's server read %d appends, want 0", n)
	}
	stores := 0
	for _, st := range cl.Stores() {
		stores += frames.count(st.ID(), wire.MsgAppend)
	}
	if stores == 0 {
		t.Fatal("no store's server read an append")
	}
}
