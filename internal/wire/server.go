package wire

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/pravega-go/pravega/internal/bookkeeper"
	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/controller"
	"github.com/pravega-go/pravega/internal/obs"
	"github.com/pravega-go/pravega/internal/segment"
	"github.com/pravega-go/pravega/internal/segstore"
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

// DataBackend is the segment data plane a server exposes. A store-role
// process serves its one store (placement.Local); the single-process server
// serves the whole cluster's placement.Router, which resolves the owning
// store — and rides out a failover — on the server side.
type DataBackend interface {
	// AppendAsync must enqueue synchronously: the serve loop's call order is
	// the connection's FIFO append order.
	AppendAsync(name string, data []byte, writerID string, eventNum int64, eventCount int32, cb func(segstore.AppendResult))
	AppendConditional(name string, data []byte, expectedOffset int64) (int64, error)
	ReadCtx(ctx context.Context, name string, offset int64, maxBytes int, wait time.Duration) (segstore.ReadResult, error)
	GetInfo(name string) (segment.Info, error)
	WriterState(name, writerID string) (int64, error)
	CreateSegment(name string) error
	SealSegment(name string) (int64, error)
	TruncateSegment(name string, offset int64) error
	DeleteSegment(name string) error
	MergeSegment(target, source string) (int64, error)
}

// ServerConfig selects which planes a server process exposes. Every backend
// is optional: a coord-role process sets Coord, Bookies and Ctrl; a
// store-role process sets Data and Load; the classic single-process server
// sets everything. Requests for an absent plane get an error reply.
type ServerConfig struct {
	// Data serves segment operations (append/read/seal/...).
	Data DataBackend
	// Ctrl serves the stream control plane.
	Ctrl *controller.Controller
	// Coord serves the coordination store remotely (MsgCoord*). It must be
	// the concrete store: sessions opened over the wire live here.
	Coord *cluster.Store
	// Bookies are the WAL bookies served remotely (MsgBookie*), by id.
	Bookies map[string]bookkeeper.Node
	// Info answers MsgClusterInfo (placement snapshot for client routing).
	Info func() (ClusterInfo, error)
	// Load answers MsgLoadReport (per-segment rates of this node's store).
	Load func() []segstore.SegmentLoad
}

// Server exposes a Pravega node — any subset of data, control, coordination
// and WAL planes — over TCP. It is decoupled from the public client
// package: pravega.Connect dials it through the same wire protocol any
// external client would use.
type Server struct {
	cfg ServerConfig
	ln  net.Listener

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup

	// coordSessions holds wire-opened coordination sessions by id. They are
	// deliberately NOT tied to any connection: a dropped connection is not a
	// dropped session (ZooKeeper's rule) — only TTL expiry or an explicit
	// close ends one, so a store process can lose its TCP link, reconnect,
	// and renew the same session as long as the lease hasn't lapsed.
	coordMu       sync.Mutex
	coordSessions map[int64]*cluster.Session
}

// errNotServed replies to requests for a plane this process doesn't host.
func errNotServed(plane string) Reply {
	return Reply{Err: fmt.Sprintf("wire: %s plane not served on this node", plane)}
}

// NewServer starts listening on addr, serving the planes cfg selects.
func NewServer(cfg ServerConfig, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:           cfg,
		ln:            ln,
		conns:         make(map[net.Conn]struct{}),
		coordSessions: make(map[int64]*cluster.Session),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
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
	bin bool
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

func (rw *replyWriter) send(id uint64, rep Reply, bin bool) {
	rw.mu.Lock()
	rw.q = append(rw.q, queuedReply{id: id, rep: rep, bin: bin})
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
			q := &batch[i]
			var err error
			if q.bin {
				err = writeBinReply(rw.wr, q.id, &q.rep)
			} else {
				err = writeMessage(rw.wr, MsgReply, q.id, q.rep)
			}
			if err != nil {
				dead = true
				break
			}
		}
		if !dead {
			_ = rw.wr.Flush()
		}
	}
}

// inflightReads tracks one connection's cancellable long-poll reads by
// request id, so MsgCancelRead can unblock them and a dropped connection
// can cancel all of them. Each id maps to a LIST of handles: a duplicated
// request frame (network-level duplication is a fault the transport must
// tolerate) registers the same id twice, and a single-entry map would
// silently drop the first cancel — leaving that read blocked for its full
// wait after the connection is gone.
type readHandle struct {
	cancel context.CancelFunc
}

type inflightReads struct {
	mu sync.Mutex
	m  map[uint64][]*readHandle
}

func (ir *inflightReads) add(id uint64, cancel context.CancelFunc) *readHandle {
	h := &readHandle{cancel: cancel}
	ir.mu.Lock()
	if ir.m == nil {
		ir.m = make(map[uint64][]*readHandle)
	}
	ir.m[id] = append(ir.m[id], h)
	ir.mu.Unlock()
	return h
}

func (ir *inflightReads) remove(id uint64, h *readHandle) {
	ir.mu.Lock()
	hs := ir.m[id]
	for i, x := range hs {
		if x == h {
			hs = append(hs[:i], hs[i+1:]...)
			break
		}
	}
	if len(hs) == 0 {
		delete(ir.m, id)
	} else {
		ir.m[id] = hs
	}
	ir.mu.Unlock()
}

func (ir *inflightReads) cancel(id uint64) {
	ir.mu.Lock()
	hs := append([]*readHandle(nil), ir.m[id]...)
	ir.mu.Unlock()
	for _, h := range hs {
		h.cancel()
	}
}

func (ir *inflightReads) cancelAll() {
	ir.mu.Lock()
	var hs []*readHandle
	for _, l := range ir.m {
		hs = append(hs, l...)
	}
	ir.m = nil
	ir.mu.Unlock()
	for _, h := range hs {
		h.cancel()
	}
}

// pending reports how many long-poll handles are registered (tests).
func (ir *inflightReads) pending() int {
	ir.mu.Lock()
	defer ir.mu.Unlock()
	n := 0
	for _, l := range ir.m {
		n += len(l)
	}
	return n
}

func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	mConnections.Add(1)
	defer mConnections.Add(-1)
	rw := &replyWriter{
		wr:   bufio.NewWriter(conn),
		kick: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	var reads inflightReads
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		rw.loop()
	}()
	// Goroutines spawned per long-poll read and per control request must
	// finish before serve returns, or Server.Close could return while a
	// request still touches the cluster.
	var reqWG sync.WaitGroup
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		reads.cancelAll()
		reqWG.Wait()
		close(rw.done)
		<-loopDone
		_ = conn.Close()
	}()
	rd := bufio.NewReader(conn)
	var scratch []byte
	for {
		t, id, body, err := readMessageInto(rd, &scratch)
		if err != nil {
			return
		}
		mRequests.Inc()
		// body aliases scratch: binary decoders copy what outlives this
		// iteration; JSON handlers get an explicit copy before dispatch.
		switch t {
		case MsgAppend:
			req, err := unmarshalAppendReq(body)
			if err != nil {
				rw.send(id, errReply(err, Reply{}), true)
				continue
			}
			if s.cfg.Data == nil {
				rw.send(id, errNotServed("data"), true)
				continue
			}
			if req.CondOffset >= 0 {
				// Conditional appends block for durability; rare enough to
				// afford a goroutine.
				reqWG.Add(1)
				go func(id uint64, req AppendReq) {
					defer reqWG.Done()
					off, err := s.cfg.Data.AppendConditional(req.Segment, req.Data, req.CondOffset)
					rw.send(id, errReply(err, Reply{Offset: off}), true)
				}(id, req)
				continue
			}
			// Synchronous enqueue preserves the connection's FIFO append
			// order; the container's applier delivers the completion straight
			// into the reply queue — no goroutine or channel per append.
			s.cfg.Data.AppendAsync(req.Segment, req.Data, req.WriterID, req.EventNum, req.EventCount,
				func(r segstore.AppendResult) {
					rw.send(id, errReply(r.Err, Reply{Offset: r.Offset}), true)
				})
		case MsgRead:
			req, err := unmarshalReadReq(body)
			if err != nil {
				rw.send(id, errReply(err, Reply{}), true)
				continue
			}
			if s.cfg.Data == nil {
				rw.send(id, errNotServed("data"), true)
				continue
			}
			if req.WaitMS <= 0 {
				// Zero-wait reads never long-poll, so they skip the cancel
				// registration: catch-up readers issue these back to back
				// and the per-request map churn is measurable.
				reqWG.Add(1)
				go func(id uint64, req ReadReq) {
					defer reqWG.Done()
					rw.send(id, s.handleRead(context.Background(), req), true)
				}(id, req)
				continue
			}
			// Long-poll reads get their own goroutine and a cancel handle
			// for MsgCancelRead.
			ctx, cancel := context.WithCancel(context.Background())
			h := reads.add(id, cancel)
			reqWG.Add(1)
			go func(id uint64, req ReadReq) {
				defer reqWG.Done()
				defer reads.remove(id, h)
				defer cancel()
				rw.send(id, s.handleRead(ctx, req), true)
			}(id, req)
		case MsgCancelRead:
			var req CancelReq
			if err := json.Unmarshal(body, &req); err == nil {
				reads.cancel(req.ReqID)
			}
			rw.send(id, Reply{}, false)
		case MsgBookieAdd:
			// Adds are the WAL hot path: decoded and enqueued synchronously
			// (preserving the connection's FIFO order into the bookie's group
			// commit), with the bookie's own completion callback delivering
			// the ack straight into the reply queue.
			req, err := unmarshalBookieReq(body)
			if err != nil {
				rw.send(id, errReply(err, Reply{}), true)
				continue
			}
			n := s.bookie(req.Bookie)
			if n == nil {
				rw.send(id, errReply(fmt.Errorf("wire: unknown bookie %q: %w", req.Bookie, bookkeeper.ErrBookieDown), Reply{}), true)
				continue
			}
			n.AddEntry(req.Ledger, req.Entry, req.Data, func(err error) {
				rw.send(id, errReply(err, Reply{}), true)
			})
		case MsgBookieRead, MsgBookieFence, MsgBookieDeleteLedger:
			req, err := unmarshalBookieReq(body)
			if err != nil {
				rw.send(id, errReply(err, Reply{}), true)
				continue
			}
			reqWG.Add(1)
			go func(t MessageType, id uint64, req BookieReq) {
				defer reqWG.Done()
				rw.send(id, s.handleBookie(t, req), true)
			}(t, id, req)
		case MsgCoordWatchData, MsgCoordWatchChildren:
			var req CoordReq
			if err := json.Unmarshal(body, &req); err != nil {
				rw.send(id, errReply(err, Reply{}), false)
				continue
			}
			if s.cfg.Coord == nil {
				rw.send(id, errNotServed("coord"), false)
				continue
			}
			// Watches are long polls: cancellable like tail reads so a
			// dropped connection (or MsgCancelRead) unblocks them.
			ctx, cancel := context.WithCancel(context.Background())
			h := reads.add(id, cancel)
			reqWG.Add(1)
			go func(t MessageType, id uint64, req CoordReq) {
				defer reqWG.Done()
				defer reads.remove(id, h)
				defer cancel()
				rw.send(id, s.handleCoordWatch(ctx, t, req), false)
			}(t, id, req)
		case MsgWatchEpoch:
			var req EpochReq
			if err := json.Unmarshal(body, &req); err != nil {
				rw.send(id, errReply(err, Reply{}), false)
				continue
			}
			if s.cfg.Coord == nil {
				rw.send(id, errNotServed("coord"), false)
				continue
			}
			ctx, cancel := context.WithCancel(context.Background())
			h := reads.add(id, cancel)
			reqWG.Add(1)
			go func(id uint64, req EpochReq) {
				defer reqWG.Done()
				defer reads.remove(id, h)
				defer cancel()
				rw.send(id, s.handleWatchEpoch(ctx, req), false)
			}(id, req)
		default:
			bodyCopy := append([]byte(nil), body...)
			reqWG.Add(1)
			go func(t MessageType, id uint64, body []byte) {
				defer reqWG.Done()
				rw.send(id, s.handle(t, body), false)
			}(t, id, bodyCopy)
		}
	}
}

// handleRead serves a (long-poll) segment read. Cancelling ctx unblocks a
// tail wait immediately.
func (s *Server) handleRead(ctx context.Context, req ReadReq) Reply {
	res, err := s.cfg.Data.ReadCtx(ctx, req.Segment, req.Offset, req.MaxBytes, time.Duration(req.WaitMS)*time.Millisecond)
	if err != nil {
		return errReply(err, Reply{})
	}
	mReads.Inc()
	mReadBytes.Add(int64(len(res.Data)))
	return Reply{Data: res.Data, Offset: res.Offset, EOS: res.EndOfSegment}
}

// jsonReply marshals v into a JSON reply, surfacing a marshal failure as an
// error reply instead of silently returning an empty body.
func jsonReply(v any, count int) Reply {
	raw, err := json.Marshal(v)
	if err != nil {
		return errReply(err, Reply{})
	}
	return Reply{JSON: raw, Count: count}
}

func (s *Server) handle(t MessageType, body []byte) Reply {
	cl := s.cfg.Data
	ctrl := s.cfg.Ctrl
	switch t {
	case MsgCreateSegment, MsgSeal, MsgTruncate, MsgDeleteSegment,
		MsgGetInfo, MsgWriterState, MsgMergeSegments:
		if cl == nil {
			return errNotServed("data")
		}
	case MsgCreateScope, MsgCreateStream, MsgActiveSegments, MsgSuccessors,
		MsgHeadSegments, MsgScaleSegments, MsgSealStream,
		MsgTruncateStream, MsgDeleteStream, MsgStreamConfig,
		MsgUpdatePolicies, MsgIsSealed, MsgSegmentCount,
		MsgBeginTxn, MsgCommitTxn, MsgAbortTxn, MsgTxnStatus:
		if ctrl == nil {
			return errNotServed("control")
		}
	case MsgCoordCreate, MsgCoordGet, MsgCoordSet, MsgCoordDelete,
		MsgCoordChildren, MsgCoordExists, MsgCoordSessionOpen,
		MsgCoordSessionRenew, MsgCoordSessionClose:
		if s.cfg.Coord == nil {
			return errNotServed("coord")
		}
		return s.handleCoord(t, body)
	case MsgLoadReport:
		if s.cfg.Load == nil {
			return errNotServed("load")
		}
		loads := s.cfg.Load()
		return jsonReply(loads, len(loads))
	}
	switch t {
	case MsgCreateSegment:
		var req SegmentReq
		if err := json.Unmarshal(body, &req); err != nil {
			return errReply(err, Reply{})
		}
		return errReply(cl.CreateSegment(req.Segment), Reply{})
	case MsgSeal:
		var req SegmentReq
		if err := json.Unmarshal(body, &req); err != nil {
			return errReply(err, Reply{})
		}
		n, err := cl.SealSegment(req.Segment)
		return errReply(err, Reply{Offset: n})
	case MsgTruncate:
		var req SegmentReq
		if err := json.Unmarshal(body, &req); err != nil {
			return errReply(err, Reply{})
		}
		return errReply(cl.TruncateSegment(req.Segment, req.Offset), Reply{})
	case MsgDeleteSegment:
		var req SegmentReq
		if err := json.Unmarshal(body, &req); err != nil {
			return errReply(err, Reply{})
		}
		return errReply(cl.DeleteSegment(req.Segment), Reply{})
	case MsgGetInfo:
		var req SegmentReq
		if err := json.Unmarshal(body, &req); err != nil {
			return errReply(err, Reply{})
		}
		info, err := cl.GetInfo(req.Segment)
		if err != nil {
			return errReply(err, Reply{})
		}
		return jsonReply(info, 0)
	case MsgWriterState:
		var req SegmentReq
		if err := json.Unmarshal(body, &req); err != nil {
			return errReply(err, Reply{})
		}
		n, err := cl.WriterState(req.Segment, req.WriterID)
		return errReply(err, Reply{Offset: n})
	case MsgCreateScope:
		var req StreamReq
		if err := json.Unmarshal(body, &req); err != nil {
			return errReply(err, Reply{})
		}
		return errReply(ctrl.CreateScope(req.Scope), Reply{})
	case MsgCreateStream:
		var req StreamReq
		if err := json.Unmarshal(body, &req); err != nil {
			return errReply(err, Reply{})
		}
		cfg := controller.StreamConfig{
			Scope: req.Scope, Name: req.Stream, InitialSegments: req.Segments,
		}
		if req.Scaling != nil {
			cfg.Scaling = *req.Scaling
		}
		if req.Retention != nil {
			cfg.Retention = *req.Retention
		}
		return errReply(ctrl.CreateStream(cfg), Reply{})
	case MsgActiveSegments:
		var req StreamReq
		if err := json.Unmarshal(body, &req); err != nil {
			return errReply(err, Reply{})
		}
		segs, err := ctrl.GetActiveSegments(req.Scope, req.Stream)
		if err != nil {
			return errReply(err, Reply{})
		}
		return jsonReply(segs, len(segs))
	case MsgSuccessors:
		var req StreamReq
		if err := json.Unmarshal(body, &req); err != nil {
			return errReply(err, Reply{})
		}
		succ, err := ctrl.GetSuccessors(req.Scope, req.Stream, req.Segment)
		if err != nil {
			return errReply(err, Reply{})
		}
		return jsonReply(succ, len(succ))
	case MsgHeadSegments:
		var req StreamReq
		if err := json.Unmarshal(body, &req); err != nil {
			return errReply(err, Reply{})
		}
		heads, err := ctrl.GetHeadSegments(req.Scope, req.Stream)
		if err != nil {
			return errReply(err, Reply{})
		}
		return jsonReply(heads, len(heads))
	case MsgScaleSegments:
		var req ScaleReq
		if err := json.Unmarshal(body, &req); err != nil {
			return errReply(err, Reply{})
		}
		return errReply(ctrl.Scale(req.Scope, req.Stream, req.Seal, req.Ranges), Reply{})
	case MsgSealStream:
		var req StreamReq
		if err := json.Unmarshal(body, &req); err != nil {
			return errReply(err, Reply{})
		}
		return errReply(ctrl.SealStream(req.Scope, req.Stream), Reply{})
	case MsgTruncateStream:
		var req TruncateStreamReq
		if err := json.Unmarshal(body, &req); err != nil {
			return errReply(err, Reply{})
		}
		return errReply(ctrl.TruncateStream(req.Scope, req.Stream, controller.StreamCut(req.Cut)), Reply{})
	case MsgDeleteStream:
		var req StreamReq
		if err := json.Unmarshal(body, &req); err != nil {
			return errReply(err, Reply{})
		}
		return errReply(ctrl.DeleteStream(req.Scope, req.Stream), Reply{})
	case MsgStreamConfig:
		var req StreamReq
		if err := json.Unmarshal(body, &req); err != nil {
			return errReply(err, Reply{})
		}
		cfg, err := ctrl.StreamConfigOf(req.Scope, req.Stream)
		if err != nil {
			return errReply(err, Reply{})
		}
		return jsonReply(cfg, 0)
	case MsgUpdatePolicies:
		var req StreamReq
		if err := json.Unmarshal(body, &req); err != nil {
			return errReply(err, Reply{})
		}
		return errReply(ctrl.UpdateStreamPolicies(req.Scope, req.Stream, req.Scaling, req.Retention), Reply{})
	case MsgIsSealed:
		var req StreamReq
		if err := json.Unmarshal(body, &req); err != nil {
			return errReply(err, Reply{})
		}
		sealed, err := ctrl.IsStreamSealed(req.Scope, req.Stream)
		n := 0
		if sealed {
			n = 1
		}
		return errReply(err, Reply{Count: n})
	case MsgSegmentCount:
		var req StreamReq
		if err := json.Unmarshal(body, &req); err != nil {
			return errReply(err, Reply{})
		}
		n, err := ctrl.SegmentCount(req.Scope, req.Stream)
		return errReply(err, Reply{Count: n})
	case MsgBeginTxn:
		var req TxnReq
		if err := json.Unmarshal(body, &req); err != nil {
			return errReply(err, Reply{})
		}
		info, err := ctrl.BeginTxn(req.Scope, req.Stream, time.Duration(req.LeaseMS)*time.Millisecond)
		if err != nil {
			return errReply(err, Reply{})
		}
		return jsonReply(info, 0)
	case MsgCommitTxn:
		var req TxnReq
		if err := json.Unmarshal(body, &req); err != nil {
			return errReply(err, Reply{})
		}
		return errReply(ctrl.CommitTxn(req.Scope, req.Stream, req.TxnID), Reply{})
	case MsgAbortTxn:
		var req TxnReq
		if err := json.Unmarshal(body, &req); err != nil {
			return errReply(err, Reply{})
		}
		return errReply(ctrl.AbortTxn(req.Scope, req.Stream, req.TxnID), Reply{})
	case MsgTxnStatus:
		var req TxnReq
		if err := json.Unmarshal(body, &req); err != nil {
			return errReply(err, Reply{})
		}
		state, err := ctrl.TxnStatus(req.Scope, req.Stream, req.TxnID)
		if err != nil {
			return errReply(err, Reply{})
		}
		return jsonReply(state, 0)
	case MsgMergeSegments:
		var req MergeReq
		if err := json.Unmarshal(body, &req); err != nil {
			return errReply(err, Reply{})
		}
		off, err := cl.MergeSegment(req.Target, req.Source)
		return errReply(err, Reply{Offset: off})
	case MsgClusterInfo:
		if s.cfg.Info == nil {
			return errNotServed("cluster info")
		}
		info, err := s.cfg.Info()
		if err != nil {
			return errReply(err, Reply{})
		}
		return jsonReply(info, 0)
	default:
		return Reply{Err: fmt.Sprintf("wire: unknown request type %d", t)}
	}
}

// coordSession resolves a wire session id. Expired sessions were already
// reaped (or will fail their next Renew), so an unknown id IS a closed
// session as far as the client can tell.
func (s *Server) coordSession(id int64) (*cluster.Session, error) {
	s.coordMu.Lock()
	sess := s.coordSessions[id]
	s.coordMu.Unlock()
	if sess == nil {
		return nil, fmt.Errorf("wire: session %d: %w", id, cluster.ErrSessionClosed)
	}
	return sess, nil
}

// handleCoord serves the non-blocking coordination-store operations. Blocking
// watches go through handleCoordWatch on the long-poll path instead.
func (s *Server) handleCoord(t MessageType, body []byte) Reply {
	cs := s.cfg.Coord
	var req CoordReq
	if err := json.Unmarshal(body, &req); err != nil {
		return errReply(err, Reply{})
	}
	switch t {
	case MsgCoordCreate:
		if req.SessionID != 0 {
			sess, err := s.coordSession(req.SessionID)
			if err != nil {
				return errReply(err, Reply{})
			}
			return errReply(sess.CreateEphemeral(req.Path, req.Data), Reply{})
		}
		if req.All {
			return errReply(cs.CreateAll(req.Path, req.Data), Reply{})
		}
		return errReply(cs.Create(req.Path, req.Data), Reply{})
	case MsgCoordGet:
		data, st, err := cs.Get(req.Path)
		if err != nil {
			return errReply(err, Reply{})
		}
		return jsonReply(CoordRep{
			Data: data, Version: st.Version, CVersion: st.CVersion,
			Ephemeral: st.Ephemeral, Owner: st.Owner,
		}, 0)
	case MsgCoordSet:
		st, err := cs.Set(req.Path, req.Data, req.Version)
		if err != nil {
			return errReply(err, Reply{})
		}
		return jsonReply(CoordRep{Version: st.Version, CVersion: st.CVersion}, 0)
	case MsgCoordDelete:
		return errReply(cs.Delete(req.Path, req.Version), Reply{})
	case MsgCoordChildren:
		names, err := cs.Children(req.Path)
		if err != nil {
			return errReply(err, Reply{})
		}
		return jsonReply(CoordRep{Children: names}, len(names))
	case MsgCoordExists:
		if cs.Exists(req.Path) {
			return Reply{Count: 1}
		}
		return Reply{}
	case MsgCoordSessionOpen:
		sess := cs.NewSessionTTL(time.Duration(req.TTLMS) * time.Millisecond)
		s.coordMu.Lock()
		s.coordSessions[sess.ID()] = sess
		s.coordMu.Unlock()
		return Reply{Offset: sess.ID()}
	case MsgCoordSessionRenew:
		sess, err := s.coordSession(req.SessionID)
		if err != nil {
			return errReply(err, Reply{})
		}
		if err := sess.Renew(); err != nil {
			s.coordMu.Lock()
			delete(s.coordSessions, req.SessionID)
			s.coordMu.Unlock()
			return errReply(err, Reply{})
		}
		return Reply{}
	case MsgCoordSessionClose:
		s.coordMu.Lock()
		sess := s.coordSessions[req.SessionID]
		delete(s.coordSessions, req.SessionID)
		s.coordMu.Unlock()
		if sess != nil {
			sess.Close()
		}
		return Reply{}
	default:
		return Reply{Err: fmt.Sprintf("wire: unknown coord request type %d", t)}
	}
}

// coordWatchMaxWait bounds a server-side watch long poll. On expiry the
// server answers Count=0 ("nothing happened, re-arm") so a one-shot watch
// registration can't leak forever when its client loses interest.
const coordWatchMaxWait = 30 * time.Second

func coordEvent(t cluster.EventType, path string) Reply {
	return jsonReply(CoordRep{EventType: int(t), EventPath: path}, 1)
}

// handleCoordWatch serves a data or children watch as a long poll. The
// client sends the version it last observed (KnownVersion); the watch is
// armed FIRST and only then compared against the current state, so a change
// racing the arm is reported, never lost — this is what lets a client
// re-arm after a reconnect without a missed-event window.
func (s *Server) handleCoordWatch(ctx context.Context, t MessageType, req CoordReq) Reply {
	cs := s.cfg.Coord
	var ch <-chan cluster.Event
	var err error
	if t == MsgCoordWatchData {
		ch, err = cs.WatchData(req.Path)
	} else {
		ch, err = cs.WatchChildren(req.Path)
	}
	if err != nil {
		if errors.Is(err, cluster.ErrNoNode) && t == MsgCoordWatchData {
			// The node vanished between the client's Get and this watch:
			// that IS the event the client is waiting for.
			return coordEvent(cluster.EventDeleted, req.Path)
		}
		return errReply(err, Reply{})
	}
	_, st, gerr := cs.Get(req.Path)
	if gerr != nil {
		if errors.Is(gerr, cluster.ErrNoNode) && t == MsgCoordWatchData {
			return coordEvent(cluster.EventDeleted, req.Path)
		}
		return errReply(gerr, Reply{})
	}
	cur, evType := st.Version, cluster.EventChanged
	if t == MsgCoordWatchChildren {
		cur, evType = st.CVersion, cluster.EventChildren
	}
	if req.KnownVersion >= 0 && cur != req.KnownVersion {
		return coordEvent(evType, req.Path)
	}
	timer := time.NewTimer(coordWatchMaxWait)
	defer timer.Stop()
	select {
	case ev, ok := <-ch:
		if !ok {
			return coordEvent(evType, req.Path)
		}
		return coordEvent(ev.Type, ev.Path)
	case <-timer.C:
		return Reply{} // Count 0: nothing fired, client re-arms
	case <-ctx.Done():
		return errReply(ctx.Err(), Reply{})
	}
}

// handleWatchEpoch long-polls the placement epoch: it replies as soon as the
// epoch exceeds the client's known value, or with the current value after
// the max wait (Count mirrors whether it advanced).
func (s *Server) handleWatchEpoch(ctx context.Context, req EpochReq) Reply {
	cs := s.cfg.Coord
	deadline := time.Now().Add(coordWatchMaxWait)
	for {
		ch, err := segstore.WatchPlacementEpoch(cs)
		if err != nil {
			return errReply(err, Reply{})
		}
		cur := segstore.PlacementEpoch(cs)
		if cur > req.Known {
			return Reply{Offset: cur, Count: 1}
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			return Reply{Offset: cur}
		}
		timer := time.NewTimer(wait)
		select {
		case <-ch:
		case <-timer.C:
			timer.Stop()
			return Reply{Offset: segstore.PlacementEpoch(cs)}
		case <-ctx.Done():
			timer.Stop()
			return errReply(ctx.Err(), Reply{})
		}
		timer.Stop()
	}
}

// bookie resolves a served bookie by id, nil when absent.
func (s *Server) bookie(id string) bookkeeper.Node {
	if s.cfg.Bookies == nil {
		return nil
	}
	return s.cfg.Bookies[id]
}

// handleBookie serves the non-append bookie operations (binary replies, like
// the rest of the bookie plane).
func (s *Server) handleBookie(t MessageType, req BookieReq) Reply {
	n := s.bookie(req.Bookie)
	if n == nil {
		return errReply(fmt.Errorf("wire: unknown bookie %q: %w", req.Bookie, bookkeeper.ErrBookieDown), Reply{})
	}
	switch t {
	case MsgBookieRead:
		data, err := n.ReadEntry(req.Ledger, req.Entry)
		return errReply(err, Reply{Data: data})
	case MsgBookieFence:
		last, err := n.Fence(req.Ledger)
		return errReply(err, Reply{Offset: last})
	case MsgBookieDeleteLedger:
		return errReply(n.DeleteLedger(req.Ledger), Reply{})
	default:
		return Reply{Err: fmt.Sprintf("wire: unknown bookie request type %d", t)}
	}
}
