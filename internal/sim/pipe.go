package sim

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"
)

// Listener is an in-memory net.Listener: Dial returns one end of a
// connection and Accept the other. Each direction of a connection is one
// Link, which hands every written chunk to the peer's reader after the
// link's modelled delay, in write order. A zero LinkConfig only hops a
// goroutine.
type Listener struct {
	cfg     LinkConfig
	backlog chan net.Conn
	done    chan struct{}
	once    sync.Once
}

// Listen opens a listener whose connections are shaped by cfg in both
// directions.
func Listen(cfg LinkConfig) *Listener {
	return &Listener{cfg: cfg, backlog: make(chan net.Conn), done: make(chan struct{})}
}

// Dial connects to the listener; it blocks until Accept takes the peer end.
// The address is ignored: the listener is the only one Dial reaches.
func (l *Listener) Dial(string) (net.Conn, error) {
	select {
	case <-l.done:
		return nil, net.ErrClosed
	default:
	}
	client, server := newPipe(l.cfg)
	select {
	case l.backlog <- server:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Accept waits for the next Dial.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close stops Accept and Dial. Open connections stay open.
func (l *Listener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

// Addr is the same for every listener: a dialer, not an address, picks the
// listener.
func (l *Listener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "sim" }
func (pipeAddr) String() string  { return "sim" }

// pipeConn is one end of a connection. Its writes ride link to the peer's
// reader; each delivery blocks the link until the peer has read it.
type pipeConn struct {
	r    *io.PipeReader // what the peer's link delivers
	w    *io.PipeWriter // the peer's r
	link *Link

	mu     sync.Mutex
	closed bool
}

// newPipe returns the two ends of a connection shaped by cfg.
func newPipe(cfg LinkConfig) (*pipeConn, *pipeConn) {
	ar, bw := io.Pipe()
	br, aw := io.Pipe()
	return &pipeConn{r: ar, w: aw, link: NewLink(cfg)}, &pipeConn{r: br, w: bw, link: NewLink(cfg)}
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

func (c *pipeConn) LocalAddr() net.Addr              { return pipeAddr{} }
func (c *pipeConn) RemoteAddr() net.Addr             { return pipeAddr{} }
func (c *pipeConn) SetDeadline(time.Time) error      { return errDeadline }
func (c *pipeConn) SetReadDeadline(time.Time) error  { return errDeadline }
func (c *pipeConn) SetWriteDeadline(time.Time) error { return errDeadline }

var errDeadline = errors.New("sim: connection deadlines are not modelled")
