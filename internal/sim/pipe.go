package sim

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Net is an in-memory address space. Every listener gets an address of its
// own, and a dialer reaches whichever listener holds the address it dials.
// The link shape belongs to the dialer: one listener can serve clients over
// one shape and other servers over another, as one host does on a real
// network.
type Net struct {
	mu  sync.Mutex
	lns map[string]*Listener
	seq int
}

// NewNet opens an empty address space.
func NewNet() *Net { return &Net{lns: make(map[string]*Listener)} }

// Listen opens a listener at a fresh address.
func (n *Net) Listen() *Listener {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.seq++
	l := &Listener{net: n, addr: pipeAddr(fmt.Sprintf("sim-%d", n.seq)),
		backlog: make(chan net.Conn), done: make(chan struct{})}
	n.lns[string(l.addr)] = l
	return l
}

// Dialer returns a dial function whose connections are shaped by cfg in
// both directions. Each direction of a connection is one Link, which hands
// every written chunk to the peer's reader after the link's modelled delay,
// in write order; a zero LinkConfig only hops a goroutine. A dial blocks
// until the listener accepts; an address no listener holds fails like a
// refused connection.
func (n *Net) Dialer(cfg LinkConfig) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		n.mu.Lock()
		l := n.lns[addr]
		n.mu.Unlock()
		if l == nil {
			return nil, fmt.Errorf("sim: dial %s: %w", addr, net.ErrClosed)
		}
		client, server := newPipe(cfg, l.addr)
		select {
		case l.backlog <- server:
			return client, nil
		case <-l.done:
			return nil, net.ErrClosed
		}
	}
}

// Listener is an in-memory net.Listener at one address of a Net.
type Listener struct {
	net     *Net
	addr    pipeAddr
	backlog chan net.Conn
	done    chan struct{}
	once    sync.Once
}

// Accept waits for the next dial.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close stops Accept and frees the address. Open connections stay open.
func (l *Listener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.mu.Lock()
		delete(l.net.lns, string(l.addr))
		l.net.mu.Unlock()
	})
	return nil
}

// Addr is the listener's address in its Net.
func (l *Listener) Addr() net.Addr { return l.addr }

type pipeAddr string

func (pipeAddr) Network() string  { return "sim" }
func (a pipeAddr) String() string { return string(a) }

// pipeConn is one end of a connection. Its writes ride link to the peer's
// reader; each delivery blocks the link until the peer has read it.
type pipeConn struct {
	r    *io.PipeReader // what the peer's link delivers
	w    *io.PipeWriter // the peer's r
	link *Link
	addr pipeAddr // the listener's

	mu     sync.Mutex
	closed bool
}

// newPipe returns the two ends of a connection to addr shaped by cfg.
func newPipe(cfg LinkConfig, addr pipeAddr) (*pipeConn, *pipeConn) {
	ar, bw := io.Pipe()
	br, aw := io.Pipe()
	return &pipeConn{r: ar, w: aw, link: NewLink(cfg), addr: addr}, &pipeConn{r: br, w: bw, link: NewLink(cfg), addr: addr}
}

func (c *pipeConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// Write hands a copy of p to the link; it never blocks on the peer.
func (c *pipeConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, net.ErrClosed
	}
	b := append([]byte(nil), p...)
	c.link.Send(len(b), func() { _, _ = c.w.Write(b) })
	return len(p), nil
}

// Close fails local reads at once; the peer reads every byte written before
// Close and then io.EOF.
func (c *pipeConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return net.ErrClosed
	}
	c.closed = true
	c.link.Send(0, func() { _ = c.w.Close() })
	return c.r.CloseWithError(net.ErrClosed)
}

func (c *pipeConn) LocalAddr() net.Addr              { return c.addr }
func (c *pipeConn) RemoteAddr() net.Addr             { return c.addr }
func (c *pipeConn) SetDeadline(time.Time) error      { return errDeadline }
func (c *pipeConn) SetReadDeadline(time.Time) error  { return errDeadline }
func (c *pipeConn) SetWriteDeadline(time.Time) error { return errDeadline }

var errDeadline = errors.New("sim: connection deadlines are not modelled")
