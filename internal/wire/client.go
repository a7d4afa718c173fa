package wire

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/pravega-go/pravega/internal/client"
	"github.com/pravega-go/pravega/internal/controller"
	"github.com/pravega-go/pravega/internal/keyspace"
	"github.com/pravega-go/pravega/internal/obs"
	"github.com/pravega-go/pravega/internal/placement"
	"github.com/pravega-go/pravega/internal/segment"
	"github.com/pravega-go/pravega/internal/segstore"
)

// Process-wide series for the wire protocol client.
var (
	mcConnections = obs.Default().Gauge("pravega_wire_client_connections",
		"Live server connections held by wire clients")
	mcReconnects = obs.Default().Counter("pravega_wire_client_reconnects_total",
		"Successful reconnects after a lost server connection")
	mcInflightAppends = obs.Default().Gauge("pravega_wire_client_inflight_appends",
		"Appends sent and not yet acknowledged")
	mcAppendRTT = obs.Default().Histogram("pravega_wire_client_append_rtt_us",
		"Append round-trip time (µs), send to acknowledgement")
	mcLongPolls = obs.Default().Gauge("pravega_wire_client_longpoll_reads",
		"Reads waiting on the server at a segment tail")
)

// ClientConfig tunes the remote transport.
type ClientConfig struct {
	// SyncRetryWindow is how long synchronous operations (reads, metadata,
	// control plane) keep retrying across a lost connection before failing
	// with client.ErrDisconnected (default 15s). Async appends never retry
	// internally: the event writer owns retry, because only it can replay
	// batches verbatim and preserve exactly-once dedup (§3.2).
	SyncRetryWindow time.Duration
}

// A lost connection is redialed with capped exponential backoff.
const (
	minBackoff = 5 * time.Millisecond
	maxBackoff = time.Second
)

// nextBackoff is the backoff step after d.
func nextBackoff(d time.Duration) time.Duration { return min(2*d, maxBackoff) }

// Client is the client side of the wire protocol: client.DataTransport and
// the controller's client-facing methods. The data plane is a
// placement.Router whose placement comes from the server's cluster-info
// message and whose per-store transport is one pipelined connection per
// store, so appends to different stores never queue behind each other; the
// control plane rides one more connection to the bootstrap address. Lost
// connections reconnect in the background with capped exponential backoff;
// in-flight operations on the lost connection fail with
// client.ErrDisconnected.
type Client struct {
	*placement.Router
	addr string
	cfg  ClientConfig
	ctrl *storeConn

	// dial opens every connection: TCP in a deployment, a sim.Net's
	// Dialer in process, a scripted dialer in tests.
	dial Dialer
	// firstBackoff is the reconnect loop's first backoff step (tests that
	// must tell a wake from a polling wait stretch it).
	firstBackoff time.Duration
}

// newClient is a client of addr, dialing through dial, whose config has
// its defaults.
func newClient(addr string, cfg ClientConfig, dial Dialer) *Client {
	if cfg.SyncRetryWindow <= 0 {
		cfg.SyncRetryWindow = 15 * time.Second
	}
	return &Client{addr: addr, cfg: cfg, dial: dial, firstBackoff: minBackoff}
}

// dialStore opens the router's per-store transport: one pipelined
// connection. A store that is unreachable right now still gets its slot,
// reconnecting in the background like any other lost connection.
func (c *Client) dialStore(ep placement.Endpoint) (placement.Store, error) {
	if ep.Addr == "" {
		return nil, fmt.Errorf("wire: store %s advertised no address", ep.ID)
	}
	conn, _ := Dial(c.dial, ep.Addr)
	return newStoreConn(c, conn, ep.Addr), nil
}

var _ client.DataTransport = (*Client)(nil)

// NewClient is NewClientOver(DialTCP, addr, cfg): a client of a deployed
// server.
func NewClient(addr string, cfg ClientConfig) (*Client, error) {
	return NewClientOver(DialTCP, addr, cfg)
}

// NewClientOver dials addr through dial, discovers the cluster layout, and
// opens one connection per segment store the same way.
func NewClientOver(dial Dialer, addr string, cfg ClientConfig) (*Client, error) {
	c := newClient(addr, cfg, dial)
	ctrlConn, err := Dial(c.dial, addr)
	if err != nil {
		return nil, err
	}
	c.ctrl = newStoreConn(c, ctrlConn, addr)
	c.Router, err = placement.New(placement.Config{Source: infoSource{c}, Dial: c.dialStore, Window: c.cfg.SyncRetryWindow})
	if err != nil {
		c.ctrl.Close()
		return nil, err
	}
	return c, nil
}

// StoreDialer is the wire protocol's per-store transport as a router's Dial
// function: each endpoint gets one pipelined, self-reconnecting connection
// opened through dial. The coord pairs it with placement.CoordSource on its
// own coordination store to reach whichever store owns a container.
func StoreDialer(dial Dialer, cfg ClientConfig) func(placement.Endpoint) (placement.Store, error) {
	return newClient("", cfg, dial).dialStore
}

// infoSource is an external client's placement source: the server's own
// placement snapshots (MsgClusterInfo) and epoch watch (MsgWatchEpoch), both
// on the control connection — so a refresh never dials.
type infoSource struct{ c *Client }

func (s infoSource) Snapshot() (placement.Snapshot, error) {
	rep, err := s.c.ctrl.call(MsgClusterInfo, struct{}{})
	return decode[placement.Snapshot](rep, err, "cluster info")
}

// WaitEpoch long-polls the server's placement epoch. A server that serves
// no epoch watch answers with a plain error, which ends the router's watch;
// a lost connection does not.
func (s infoSource) WaitEpoch(known int64, _ <-chan struct{}) (int64, error) {
	rep, err := s.c.ctrl.call(MsgWatchEpoch, EpochReq{Known: known})
	return rep.Offset, err
}

// Close tears down every connection. In-flight operations fail with
// client.ErrDisconnected.
func (c *Client) Close() error {
	c.ctrl.Close() // first: it unblocks the router's epoch watch
	return c.Router.Close()
}

// storeConn owns one connection to one server process and its reconnect
// loop. It is the wire implementation of placement.Store (single attempts
// on the live connection) and, through call, the carrier of the control and
// coordination planes.
type storeConn struct {
	c      *Client
	addr   string
	mu     sync.Mutex
	conn   *Conn // nil while disconnected
	redial bool  // reconnect loop running
	closed bool
	// ready broadcasts state changes to acquire waiters: it is an open
	// channel while disconnected (replaced on every fault) and closed the
	// moment the connection is live again or the storeConn closes, so
	// waiters wake immediately instead of polling.
	ready chan struct{}
}

var _ placement.Store = (*storeConn)(nil)

// newStoreConn wraps a live connection, or — given nil — starts
// disconnected with the reconnect loop already dialing.
func newStoreConn(c *Client, conn *Conn, addr string) *storeConn {
	sc := &storeConn{c: c, conn: conn, addr: addr, ready: make(chan struct{})}
	if conn == nil {
		sc.redial = true
		go sc.reconnectLoop()
		return sc
	}
	mcConnections.Add(1)
	close(sc.ready) // born connected
	return sc
}

// Close tears the connection down for good and wakes every waiter.
func (sc *storeConn) Close() {
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return
	}
	sc.closed = true
	conn := sc.conn
	sc.conn = nil
	if conn == nil {
		// Disconnected: ready is open and waiters are parked on it; wake
		// them so they observe the close. (While connected, ready is
		// already closed.)
		close(sc.ready)
	}
	sc.mu.Unlock()
	if conn != nil {
		mcConnections.Add(-1)
		_ = conn.Close()
	}
}

// isClosed reports whether the slot was closed for good.
func (sc *storeConn) isClosed() bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.closed
}

// current returns the live connection, or nil while disconnected.
func (sc *storeConn) current() *Conn {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.conn
}

// fault reports that conn failed. The first reporter tears it down and
// starts the reconnect loop; duplicates (every in-flight op on the
// connection observes the same failure) are no-ops.
func (sc *storeConn) fault(conn *Conn) {
	if conn == nil {
		return
	}
	sc.mu.Lock()
	if sc.conn != conn {
		sc.mu.Unlock()
		return
	}
	sc.conn = nil
	sc.ready = make(chan struct{}) // re-open: waiters park here until reconnect
	start := !sc.redial && !sc.closed
	if start {
		sc.redial = true
	}
	sc.mu.Unlock()
	mcConnections.Add(-1)
	_ = conn.Close()
	if start {
		go sc.reconnectLoop()
	}
}

// reconnectLoop redials with capped exponential backoff until it succeeds
// or the client closes.
func (sc *storeConn) reconnectLoop() {
	backoff := sc.c.firstBackoff
	for {
		sc.mu.Lock()
		if sc.closed {
			sc.redial = false
			sc.mu.Unlock()
			return
		}
		sc.mu.Unlock()
		conn, err := Dial(sc.c.dial, sc.addr)
		if err == nil {
			sc.mu.Lock()
			sc.redial = false
			if sc.closed {
				sc.mu.Unlock()
				_ = conn.Close()
				return
			}
			sc.conn = conn
			close(sc.ready) // wake every acquire waiter at once
			sc.mu.Unlock()
			mcConnections.Add(1)
			mcReconnects.Inc()
			return
		}
		time.Sleep(backoff)
		backoff = nextBackoff(backoff)
	}
}

// acquire waits for a live connection until the deadline. Waiters park on
// the ready broadcast channel, so a reconnect (or close) wakes them
// immediately rather than after a polling interval. A connection that died
// idle — nobody was using it to notice — is faulted here rather than handed
// out: under connection churn an attempt spent on discovering a dead
// connection is followed by a retry that finds the next one dead again.
func (sc *storeConn) acquire(deadline time.Time) (*Conn, error) {
	for {
		sc.mu.Lock()
		conn, closed, ready := sc.conn, sc.closed, sc.ready
		sc.mu.Unlock()
		if closed {
			return nil, fmt.Errorf("wire: client closed: %w", client.ErrDisconnected)
		}
		if conn != nil && conn.Err() != nil {
			sc.fault(conn)
			continue
		}
		if conn != nil {
			return conn, nil
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			return nil, fmt.Errorf("wire: %s unreachable: %w", sc.addr, client.ErrDisconnected)
		}
		timer := time.NewTimer(wait)
		select {
		case <-ready:
			timer.Stop()
		case <-timer.C:
			return nil, fmt.Errorf("wire: %s unreachable: %w", sc.addr, client.ErrDisconnected)
		}
	}
}

// decode reads the record a successful call's reply carries in Data: the
// mirror of the server's record, by the same rule (decodeBody).
func decode[T any](rep Reply, err error, what string) (v T, _ error) {
	if err == nil {
		if err = decodeBody(rep.Data, &v); err != nil {
			err = fmt.Errorf("wire: %s: %w", what, err)
		}
	}
	return v, err
}

func disconnected(err error) error {
	if errors.Is(err, client.ErrDisconnected) {
		return err
	}
	return fmt.Errorf("%w: %v", client.ErrDisconnected, err)
}

// attemptWait is how long a routed attempt waits for a lost connection to
// come back before reporting the request as not sent. One router backoff
// step: a store that is gone costs callers no more than an unowned container.
const attemptWait = 100 * time.Millisecond

// roundTrip performs one request on the live connection, waiting for a
// reconnect until the deadline. A request that never left is marked
// placement.ErrNotSent: retrying it is safe for any operation.
func (sc *storeConn) roundTrip(deadline time.Time, t MessageType, body any) (Reply, error) {
	conn, err := sc.acquire(deadline)
	if err != nil {
		return Reply{}, fmt.Errorf("%w (%w)", err, placement.ErrNotSent)
	}
	rep, err := conn.Call(t, body)
	if err != nil && placement.IsDisconnect(err) {
		sc.fault(conn)
		err = disconnected(err)
	}
	return rep, err
}

// once is a routed segment operation's single attempt.
func (sc *storeConn) once(t MessageType, body any) (Reply, error) {
	return sc.roundTrip(time.Now().Add(attemptWait), t, body)
}

// call performs one synchronous request on this connection's fixed
// endpoint (control plane, coordination store, bookies), waiting out a
// reconnect and resending across connection loss within the sync retry
// window. Segment operations do not come through here: the router retries
// those, against whichever store owns the container by then.
func (sc *storeConn) call(t MessageType, body any) (Reply, error) {
	deadline := time.Now().Add(sc.c.cfg.SyncRetryWindow)
	for {
		rep, err := sc.roundTrip(deadline, t, body)
		if err != nil && placement.IsDisconnect(err) && !errors.Is(err, placement.ErrNotSent) && time.Now().Before(deadline) {
			continue
		}
		return rep, err
	}
}

// --- placement.Store ---

// AppendAfter pipelines an append on the connection. It fails fast on a
// lost connection — no internal retry — because replaying is the event
// writer's job: it must resend the original batches verbatim for
// server-side dedup to recognize them (§3.2).
func (sc *storeConn) AppendAfter(name string, data []byte, writerID string, prev, eventNum int64, eventCount int32, cb func(segstore.AppendResult)) {
	conn := sc.current()
	if conn == nil {
		sc.failAppend(cb, fmt.Errorf("wire: %s: %w", sc.addr, client.ErrDisconnected))
		return
	}
	req := AppendReq{
		Segment: name, Data: data, WriterID: writerID,
		EventNum: eventNum, EventCount: eventCount, CondOffset: -1, Prev: prev,
	}
	start := time.Now()
	mcInflightAppends.Add(1)
	err := conn.CallAsyncFunc(MsgAppend, &req, func(rep Reply) {
		mcInflightAppends.Add(-1)
		mcAppendRTT.RecordSince(start)
		err := ReplyError(rep)
		if placement.IsDisconnect(err) {
			sc.fault(conn)
		}
		cb(segstore.AppendResult{Offset: rep.Offset, Err: err})
	})
	if err != nil {
		mcInflightAppends.Add(-1)
		sc.fault(conn)
		sc.failAppend(cb, disconnected(err))
	}
}

// failAppend delivers an append that could not be sent, on a goroutine:
// callers may invoke AppendAfter holding the lock their callback takes.
// Later appends may be sent before it runs: the container's predecessor
// check (segstore.Operation.Prev) keeps them from overtaking this one.
func (sc *storeConn) failAppend(cb func(segstore.AppendResult), err error) {
	go cb(segstore.AppendResult{Offset: -1, Err: err})
}

func (sc *storeConn) AppendConditional(name string, data []byte, expectedOffset int64) (int64, error) {
	rep, err := sc.once(MsgAppend, &AppendReq{Segment: name, Data: data, CondOffset: expectedOffset})
	return rep.Offset, err
}

// ReadCtx waits up to wait at the tail. When ctx is done it returns at once
// and abandons the reply: the server's read runs on until its wait lapses,
// data arrives or the connection ends.
func (sc *storeConn) ReadCtx(ctx context.Context, name string, offset int64, maxBytes int, wait time.Duration) (segstore.ReadResult, error) {
	conn, err := sc.acquire(time.Now().Add(attemptWait))
	if err != nil {
		return segstore.ReadResult{}, fmt.Errorf("%w (%w)", err, placement.ErrNotSent)
	}
	req := ReadReq{Segment: name, Offset: offset, MaxBytes: maxBytes, WaitMS: wait.Milliseconds()}
	ch, err := conn.CallAsync(MsgRead, &req)
	if err != nil {
		if placement.IsDisconnect(err) {
			sc.fault(conn)
			err = disconnected(err)
		}
		return segstore.ReadResult{}, err
	}
	if wait > 0 {
		mcLongPolls.Add(1)
		defer mcLongPolls.Add(-1)
	}
	var rep Reply
	select {
	case rep = <-ch:
	case <-ctx.Done():
		return segstore.ReadResult{}, ctx.Err()
	}
	if err := ReplyError(rep); err != nil {
		if placement.IsDisconnect(err) {
			sc.fault(conn)
		}
		return segstore.ReadResult{}, err
	}
	return segstore.ReadResult{Data: rep.Data, Offset: rep.Offset, EndOfSegment: rep.EOS}, nil
}

func (sc *storeConn) GetInfo(name string) (segment.Info, error) {
	rep, err := sc.once(MsgGetInfo, SegmentReq{Segment: name})
	return decode[segment.Info](rep, err, "segment info")
}

func (sc *storeConn) WriterState(name, writerID string) (int64, error) {
	rep, err := sc.once(MsgWriterState, SegmentReq{Segment: name, WriterID: writerID})
	return rep.Offset, err
}

func (sc *storeConn) CreateSegment(name string) error {
	_, err := sc.once(MsgCreateSegment, SegmentReq{Segment: name})
	return err
}

func (sc *storeConn) SealSegment(name string) (int64, error) {
	rep, err := sc.once(MsgSeal, SegmentReq{Segment: name})
	return rep.Offset, err
}

func (sc *storeConn) TruncateSegment(name string, offset int64) error {
	_, err := sc.once(MsgTruncate, SegmentReq{Segment: name, Offset: offset})
	return err
}

func (sc *storeConn) DeleteSegment(name string) error {
	_, err := sc.once(MsgDeleteSegment, SegmentReq{Segment: name})
	return err
}

func (sc *storeConn) MergeSegment(target, source string) (int64, error) {
	rep, err := sc.once(MsgMergeSegments, &MergeReq{Target: target, Source: source})
	return rep.Offset, err
}

func (sc *storeConn) LoadReport() ([]segstore.SegmentLoad, error) {
	rep, err := sc.once(MsgLoadReport, struct{}{})
	return decode[[]segstore.SegmentLoad](rep, err, "load report")
}

// --- control plane ---

func (c *Client) CreateScope(scope string) error {
	_, err := c.ctrl.call(MsgCreateScope, StreamReq{Scope: scope})
	return err
}

func (c *Client) CreateStream(cfg controller.StreamConfig) error {
	req := StreamReq{Scope: cfg.Scope, Stream: cfg.Name, Segments: cfg.InitialSegments}
	if cfg.Scaling != (controller.ScalingPolicy{}) {
		s := cfg.Scaling
		req.Scaling = &s
	}
	if cfg.Retention != (controller.RetentionPolicy{}) {
		r := cfg.Retention
		req.Retention = &r
	}
	_, err := c.ctrl.call(MsgCreateStream, req)
	return err
}

func (c *Client) GetActiveSegments(scope, stream string) ([]controller.SegmentWithRange, error) {
	rep, err := c.ctrl.call(MsgActiveSegments, StreamReq{Scope: scope, Stream: stream})
	return decode[[]controller.SegmentWithRange](rep, err, "active segments")
}

func (c *Client) GetSuccessors(scope, stream string, segNumber int64) ([]controller.SuccessorRecord, error) {
	rep, err := c.ctrl.call(MsgSuccessors, StreamReq{Scope: scope, Stream: stream, Segment: segNumber})
	return decode[[]controller.SuccessorRecord](rep, err, "successors")
}

func (c *Client) GetHeadSegments(scope, stream string) ([]controller.HeadSegment, error) {
	rep, err := c.ctrl.call(MsgHeadSegments, StreamReq{Scope: scope, Stream: stream})
	return decode[[]controller.HeadSegment](rep, err, "head segments")
}

func (c *Client) Scale(scope, stream string, seal []int64, newRanges []keyspace.Range) error {
	_, err := c.ctrl.call(MsgScaleSegments, ScaleReq{Scope: scope, Stream: stream, Seal: seal, Ranges: newRanges})
	return err
}

func (c *Client) SealStream(scope, stream string) error {
	_, err := c.ctrl.call(MsgSealStream, StreamReq{Scope: scope, Stream: stream})
	return err
}

func (c *Client) TruncateStream(scope, stream string, cut controller.StreamCut) error {
	_, err := c.ctrl.call(MsgTruncateStream, TruncateStreamReq{Scope: scope, Stream: stream, Cut: cut})
	return err
}

func (c *Client) DeleteStream(scope, stream string) error {
	_, err := c.ctrl.call(MsgDeleteStream, StreamReq{Scope: scope, Stream: stream})
	return err
}

func (c *Client) StreamConfigOf(scope, stream string) (controller.StreamConfig, error) {
	rep, err := c.ctrl.call(MsgStreamConfig, StreamReq{Scope: scope, Stream: stream})
	return decode[controller.StreamConfig](rep, err, "stream config")
}

func (c *Client) UpdateStreamPolicies(scope, stream string, scaling *controller.ScalingPolicy, retention *controller.RetentionPolicy) error {
	_, err := c.ctrl.call(MsgUpdatePolicies, StreamReq{Scope: scope, Stream: stream, Scaling: scaling, Retention: retention})
	return err
}

func (c *Client) IsStreamSealed(scope, stream string) (bool, error) {
	rep, err := c.ctrl.call(MsgIsSealed, StreamReq{Scope: scope, Stream: stream})
	if err != nil {
		return false, err
	}
	return rep.Count == 1, nil
}

func (c *Client) SegmentCount(scope, stream string) (int, error) {
	rep, err := c.ctrl.call(MsgSegmentCount, StreamReq{Scope: scope, Stream: stream})
	if err != nil {
		return 0, err
	}
	return rep.Count, nil
}

func (c *Client) BeginTxn(scope, stream string, lease time.Duration) (controller.TxnInfo, error) {
	rep, err := c.ctrl.call(MsgBeginTxn, TxnReq{Scope: scope, Stream: stream, LeaseMS: lease.Milliseconds()})
	return decode[controller.TxnInfo](rep, err, "begin txn")
}

func (c *Client) CommitTxn(scope, stream, txnID string) error {
	_, err := c.ctrl.call(MsgCommitTxn, TxnReq{Scope: scope, Stream: stream, TxnID: txnID})
	return err
}

func (c *Client) AbortTxn(scope, stream, txnID string) error {
	_, err := c.ctrl.call(MsgAbortTxn, TxnReq{Scope: scope, Stream: stream, TxnID: txnID})
	return err
}

func (c *Client) TxnStatus(scope, stream, txnID string) (controller.TxnState, error) {
	rep, err := c.ctrl.call(MsgTxnStatus, TxnReq{Scope: scope, Stream: stream, TxnID: txnID})
	return decode[controller.TxnState](rep, err, "txn status")
}
