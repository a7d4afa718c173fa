package wire

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"

	"github.com/pravega-go/pravega/internal/bookkeeper"
	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/controller"
	"github.com/pravega-go/pravega/internal/obs"
	"github.com/pravega-go/pravega/internal/placement"
)

// Process-wide series for the wire protocol server.
var (
	mConnections = obs.Default().Gauge("pravega_wire_connections",
		"Open client connections")
	mRequests = obs.Default().Counter("pravega_wire_requests_total",
		"Requests received across all connections")
	mAcksPerFlush = obs.Default().Histogram("pravega_wire_acks_per_flush",
		"Replies coalesced into one connection flush")
	mReads = obs.Default().Counter("pravega_wire_reads_total",
		"Segment read requests served")
	mReadBytes = obs.Default().Counter("pravega_wire_read_bytes_total",
		"Payload bytes returned to read requests")
)

// ServerConfig selects which planes a server exposes. Every backend is
// optional: a coord role sets Ctrl, Coord, Bookies and Placement; a store
// role sets Data. Requests for an absent plane get an error reply.
type ServerConfig struct {
	// Data serves segment operations (append/read/seal/...) and MsgLoadReport
	// (per-segment rates): a store role serves its one store
	// (placement.Local). AppendAfter must enqueue synchronously: the serve
	// loop's call order is the connection's FIFO append order.
	Data placement.Store
	// Ctrl serves the stream control plane.
	Ctrl *controller.Controller
	// Coord serves the coordination store remotely (MsgCoord*). It must be
	// the concrete store: sessions opened over the wire live there and
	// nowhere else, by id — deliberately not tied to a connection, so one
	// survives a reconnect within its lease (see RemoteStore).
	Coord *cluster.Store
	// Bookies are the WAL bookies served remotely (MsgBookie*), by id.
	Bookies map[string]bookkeeper.Node
	// Placement answers MsgClusterInfo with its snapshot and MsgWatchEpoch
	// with its epoch watch, so clients route as the server does.
	Placement placement.Source
}

// Server exposes a Pravega node — any subset of data, control, coordination
// and WAL planes — over the wire protocol. It is decoupled from the public
// client package: pravega.Connect and pravega.NewInProcess reach it through
// the same wire protocol any external client would use.
type Server struct {
	cfg ServerConfig
	ln  net.Listener

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// NewServer serves the planes cfg selects on ln, which it owns from here
// on: a TCP listener in a deployment, a sim.Listener in process.
func NewServer(cfg ServerConfig, ln net.Listener) *Server {
	s := &Server{cfg: cfg, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and open connections (the cluster and
// controller are left to the caller). It returns only after every serve
// goroutine has drained, so no request started before Close is still being
// enqueued when it returns.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serve(conn)
	}
}

// queuedReply is one response waiting for the connection's reply writer.
type queuedReply struct {
	id  uint64
	rep Reply
}

// replyWriter serializes responses for one connection. Completions arrive
// from many goroutines — most importantly the segment container's applier,
// which must never block — so send only appends to a queue under a mutex
// and kicks the writer. A single goroutine drains the queue, writing each
// batch through the bufio.Writer and flushing once per batch, which
// coalesces the small append acks of a pipelined writer into few syscalls.
type replyWriter struct {
	wr   *bufio.Writer
	mu   sync.Mutex
	q    []queuedReply
	kick chan struct{}
	done chan struct{}
}

func (rw *replyWriter) send(id uint64, rep Reply) {
	rw.mu.Lock()
	rw.q = append(rw.q, queuedReply{id: id, rep: rep})
	rw.mu.Unlock()
	select {
	case rw.kick <- struct{}{}:
	default:
	}
}

func (rw *replyWriter) loop() {
	var batch []queuedReply
	dead := false // write failed: keep draining so late completions don't pile up
	for {
		select {
		case <-rw.kick:
		case <-rw.done:
			return
		}
		rw.mu.Lock()
		batch, rw.q = rw.q, batch[:0]
		rw.mu.Unlock()
		if dead {
			continue
		}
		if len(batch) > 0 {
			mAcksPerFlush.Record(int64(len(batch)))
		}
		for i := range batch {
			if err := writeFrame(rw.wr, MsgReplyBin, batch[i].id, &batch[i].rep); err != nil {
				dead = true
				break
			}
		}
		if !dead {
			_ = rw.wr.Flush()
		}
	}
}

// srvConn is one served connection: what a handler needs to answer on it.
type srvConn struct {
	srv *Server
	rw  *replyWriter
	// ctx is every request's context: it ends with the connection, which is
	// what unblocks a wait whose client is gone.
	ctx context.Context
	// reqWG counts request goroutines: they must finish before serve
	// returns, or Server.Close could return while a request still touches
	// the cluster.
	reqWG sync.WaitGroup
}

// run answers request id with call's result from a goroutine of its own.
func (c *srvConn) run(id uint64, call func(context.Context) Reply) {
	c.reqWG.Add(1)
	go func() {
		defer c.reqWG.Done()
		c.rw.send(id, call(c.ctx))
	}()
}

// serve is the connection's read loop: read a frame, find its row in the
// handler table, and start it. Everything a message means is in its row.
func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	mConnections.Add(1)
	defer mConnections.Add(-1)
	ctx, cancel := context.WithCancel(context.Background())
	c := &srvConn{srv: s, ctx: ctx, rw: &replyWriter{
		wr:   bufio.NewWriter(conn),
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}}
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		c.rw.loop()
	}()
	defer func() {
		cancel()
		c.reqWG.Wait()
		close(c.rw.done)
		<-loopDone
		_ = conn.Close()
		// Last: a connection the server still lists may have requests running.
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	rd := bufio.NewReader(conn)
	for {
		t, id, body, err := readMessage(rd)
		if err != nil {
			return
		}
		mRequests.Inc()
		var call func(context.Context) Reply
		h := handlerFor(t)
		if h == nil {
			err = fmt.Errorf("wire: unknown request type %d", t)
		} else if name, ok := s.served(h.plane); !ok {
			err = fmt.Errorf("wire: %s plane not served on this node", name)
		} else {
			call, err = h.start(c, id, body)
		}
		switch {
		case err != nil:
			c.rw.send(id, errReply(err, Reply{}))
		case call != nil:
			c.run(id, call)
		}
	}
}
