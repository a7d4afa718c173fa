// Package wire implements the protocol between Pravega clients and server
// nodes, over TCP or over internal/sim's in-memory connections:
// length-prefixed, request-id-correlated messages. Requests pipeline on one
// connection and responses may return out of order, exactly like Pravega's
// wire protocol; the segment append path preserves per-connection FIFO
// submission order, which the event writer's ordering guarantee builds on
// (§3.2).
//
// There is one protocol. Every reply is the binary Reply envelope
// (MsgReplyBin); a structured result rides in its Data. A body with a
// hand-written layout (AppendReq, ReadReq, BookieReq, Reply: the append,
// read and WAL hot path, in the uvarint scheme of the segment store's WAL
// frames) encodes itself; any other body is a control-plane record owned by
// another package and travels as its encoding/json bytes. codec.go holds
// that rule and nothing else knows it. Encode buffers are pooled; every
// message is read into a buffer of its own, which a decoded payload
// aliases, so a payload crosses a process with no copy in user space but
// the socket's (see writeFrame and readMessage).
//
// A new request is one MessageType constant and one row of the handler
// table (handlers.go): the plane it needs, where it runs, a typed function.
// The server's read loop knows nothing else about any message.
//
// Every client speaks it, the in-process pravega.System included; only the
// transport under it differs. Routing (which store serves a segment, what
// to do when it moved) is internal/placement's; storeConn here is its
// per-store wire transport.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"github.com/pravega-go/pravega/internal/controller"
	"github.com/pravega-go/pravega/internal/keyspace"
)

// MessageType tags a request or response.
type MessageType uint8

// Request/response message types.
const (
	// Segment-store requests.
	MsgCreateSegment MessageType = iota + 1
	MsgAppend
	MsgRead
	MsgSeal
	MsgTruncate
	MsgDeleteSegment
	MsgGetInfo
	MsgWriterState
	// Controller requests.
	MsgCreateScope
	MsgCreateStream
	MsgActiveSegments
	MsgSuccessors
	_ // 13 was MsgScale (split one segment by factor); MsgScaleSegments replaced it
	MsgSealStream
	MsgSegmentCount
	_ // 16 was the JSON reply envelope; every reply is MsgReplyBin
	// MsgReplyBin is the one response type: the binary Reply envelope.
	MsgReplyBin
	// Second-generation requests (full remote client).
	MsgHeadSegments
	MsgTruncateStream
	MsgDeleteStream
	MsgStreamConfig
	MsgUpdatePolicies
	MsgIsSealed
	MsgScaleSegments
	_ // 25 was MsgCancelRead
	MsgClusterInfo
	// Transaction requests (§3.2).
	MsgBeginTxn
	MsgCommitTxn
	MsgAbortTxn
	MsgTxnStatus
	MsgMergeSegments
	// Remote coordination store (the coord role serves internal/cluster the
	// way Pravega's segment stores reach an external ZooKeeper, §2.2/§4.4).
	MsgCoordCreate
	MsgCoordGet
	MsgCoordSet
	MsgCoordDelete
	MsgCoordChildren
	MsgCoordExists
	MsgCoordWatchData
	MsgCoordWatchChildren
	MsgCoordSessionOpen
	MsgCoordSessionRenew
	MsgCoordSessionClose
	// Remote bookies (the coord role hosts the WAL ensemble so acked data
	// survives any store process's death).
	MsgBookieAdd
	MsgBookieRead
	MsgBookieFence
	MsgBookieDeleteLedger
	// Placement-epoch watch (clients re-resolve placement proactively)
	// and per-store load reports (controller scaling feedback).
	MsgWatchEpoch
	MsgLoadReport

	// msgEnd bounds the handler table; new types go above it (numbers are
	// part of the protocol: append only, never renumber).
	msgEnd
)

// Every message is preceded by a fixed header: 4-byte body length, 1-byte
// message type, 8-byte request id.
const headerSize = 4 + 1 + 8

// maxBody bounds one message (events are ≤ 8 MiB in this build).
const maxBody = 32 << 20

// readMessage reads one framed message. The body is a buffer of its own,
// which the caller owns: decoded payloads alias it, and travel on by
// reference — into a container's cache and tiering queue, a bookie's
// journal, a reply's caller.
func readMessage(r io.Reader) (MessageType, uint64, []byte, error) {
	frame, err := ReadRawFrame(r)
	if err != nil {
		return 0, 0, nil, err
	}
	return RawFrameType(frame), RawFrameReqID(frame), frame[headerSize:], nil
}

// Raw-frame helpers: they move whole framed messages (header + body)
// without decoding the body. Network fault-injection proxies
// (internal/faultinject's NemesisProxy) use them to forward, duplicate,
// split, or truncate traffic at frame granularity; readMessage reads
// through them.

// ReadRawFrame reads one complete framed message from r and returns it
// (header included) as a fresh byte slice.
func ReadRawFrame(r io.Reader) ([]byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n > maxBody {
		return nil, fmt.Errorf("wire: oversized body (%d bytes)", n)
	}
	frame := make([]byte, headerSize+int(n))
	copy(frame, hdr[:])
	if _, err := io.ReadFull(r, frame[headerSize:]); err != nil {
		return nil, err
	}
	return frame, nil
}

// RawFrameType returns a raw frame's message type.
func RawFrameType(frame []byte) MessageType { return MessageType(frame[4]) }

// RawFrameReqID returns a raw frame's request id.
func RawFrameReqID(frame []byte) uint64 { return binary.BigEndian.Uint64(frame[5:13]) }

// Request bodies.

// AppendReq is a segment append.
type AppendReq struct {
	Segment    string
	Data       []byte
	WriterID   string
	EventNum   int64
	EventCount int32
	CondOffset int64 // -1 = unconditional
	Prev       int64 // segstore.Operation.Prev
}

// ReadReq is a segment read.
type ReadReq struct {
	Segment  string
	Offset   int64
	MaxBytes int
	WaitMS   int64
}

// SegmentReq names a segment (create/seal/delete/info).
type SegmentReq struct {
	Segment  string `json:"segment"`
	Offset   int64  `json:"offset,omitempty"`   // truncate
	WriterID string `json:"writerId,omitempty"` // writer state
}

// StreamReq names a stream (controller operations).
type StreamReq struct {
	Scope    string `json:"scope"`
	Stream   string `json:"stream,omitempty"`
	Segments int    `json:"segments,omitempty"`
	// Successors query.
	Segment int64 `json:"segment,omitempty"`
	// Stream policies (create stream / update policies).
	Scaling   *controller.ScalingPolicy   `json:"scaling,omitempty"`
	Retention *controller.RetentionPolicy `json:"retention,omitempty"`
}

// ScaleReq is the general scale request: seal the listed segments and
// replace them with new segments over the given key ranges (Fig. 2b).
type ScaleReq struct {
	Scope  string           `json:"scope"`
	Stream string           `json:"stream"`
	Seal   []int64          `json:"seal"`
	Ranges []keyspace.Range `json:"ranges"`
}

// TruncateStreamReq truncates a stream at a consistent cut.
type TruncateStreamReq struct {
	Scope  string          `json:"scope"`
	Stream string          `json:"stream"`
	Cut    map[int64]int64 `json:"cut"`
}

// TxnReq addresses a transaction (begin/commit/abort/status). LeaseMS is
// only meaningful on begin; TxnID on the other three.
type TxnReq struct {
	Scope   string `json:"scope"`
	Stream  string `json:"stream"`
	TxnID   string `json:"txnId,omitempty"`
	LeaseMS int64  `json:"leaseMs,omitempty"`
}

// MergeReq atomically folds the sealed source segment into the target
// (transaction commit's data-plane primitive).
type MergeReq struct {
	Target string `json:"target"`
	Source string `json:"source"`
}

// CoordReq addresses the remote coordination store. One body shape serves
// every coord message; unused fields are omitted on the wire.
type CoordReq struct {
	Path string `json:"path,omitempty"`
	Data []byte `json:"data,omitempty"`
	// Version is the CAS guard for Set/Delete (-1 = unconditional).
	Version int64 `json:"version,omitempty"`
	// All makes Create behave like CreateAll (mkdir -p), saving a round
	// trip per ancestor.
	All bool `json:"all,omitempty"`
	// SessionID scopes ephemeral creates and session renew/close.
	SessionID int64 `json:"sessionId,omitempty"`
	// TTLMS is the session lease for MsgCoordSessionOpen.
	TTLMS int64 `json:"ttlMs,omitempty"`
	// KnownVersion is the watch baseline: the data version (WatchData) or
	// child version (WatchChildren) the client last observed. The server
	// replies immediately when current state already differs — this is what
	// keeps a watch sound across client reconnects.
	KnownVersion int64 `json:"knownVersion,omitempty"`
}

// CoordRep is the record coord replies that carry node state hold in Data.
type CoordRep struct {
	Data      []byte   `json:"data,omitempty"`
	Version   int64    `json:"version"`
	CVersion  int64    `json:"cversion,omitempty"`
	Ephemeral bool     `json:"ephemeral,omitempty"`
	Owner     int64    `json:"owner,omitempty"`
	Children  []string `json:"children,omitempty"`
	// EventType/EventPath carry the fired watch event (Count=1 on the
	// enclosing Reply distinguishes "event fired" from "max wait elapsed,
	// re-arm").
	EventType int    `json:"eventType,omitempty"`
	EventPath string `json:"eventPath,omitempty"`
}

// BookieReq addresses bookies hosted by the coord process: an add names
// every bookie of the entry's write set there, so its payload crosses once;
// a read, fence or delete addresses the first it names.
type BookieReq struct {
	Bookies []string
	Ledger  int64
	Entry   int64
	Data    []byte
	// parts, when set, is an add's entry in the pieces the ledger hands
	// over (a WAL frame: op headers between payloads), sent in place of
	// Data. The wire carries their concatenation, which the receiver
	// decodes into Data.
	parts [][]byte
}

// EpochReq is the placement-epoch watch, answered by the server's
// placement.Source: the current epoch in Reply.Offset once it exceeds Known,
// or when the server's bound on the wait lapses.
type EpochReq struct {
	Known int64 `json:"known"`
}

// Reply is the uniform response body. Code carries the error's sentinel
// identity across the wire (see errcode.go) so clients can reconstruct an
// errors.Is-matchable chain; Err keeps the human-readable message. Data is
// the payload: segment or journal bytes, or a result record (see decode).
type Reply struct {
	Err    string
	Code   int
	Offset int64
	Data   []byte
	EOS    bool
	Count  int
}

// Conn is a pipelined client connection.
type Conn struct {
	mu     sync.Mutex
	nextID uint64
	wr     *bufio.Writer
	conn   net.Conn

	// pending routes each outstanding request's reply: to a channel
	// (synchronous calls) or a callback (pipelined appends). Callbacks run
	// on the connection's read goroutine (or failAll's) and must not block:
	// a slow callback stalls every later reply on the connection.
	pendMu  sync.Mutex
	pending map[uint64]func(Reply)
	readErr error
	closed  bool
}

// Dialer opens one raw connection to a server address.
type Dialer func(addr string) (net.Conn, error)

// DialTCP is the deployed Dialer.
func DialTCP(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// Dial opens a connection to a server node through dial and runs the
// client side of the protocol on it: every client connection starts here.
func Dial(dial Dialer, addr string) (*Conn, error) {
	nc, err := dial(addr)
	if err != nil {
		return nil, err
	}
	c := &Conn{
		conn:    nc,
		wr:      bufio.NewWriter(nc),
		pending: make(map[uint64]func(Reply)),
	}
	go c.readLoop()
	return c, nil
}

func (c *Conn) readLoop() {
	rd := bufio.NewReader(c.conn)
	for {
		t, id, body, err := readMessage(rd)
		if err != nil {
			c.failAll(err)
			return
		}
		var rep Reply
		if t != MsgReplyBin {
			err = fmt.Errorf("wire: unexpected message type %d", t)
		} else {
			err = rep.unmarshalBinary(body)
		}
		if err != nil {
			c.failAll(err)
			return
		}
		c.pendMu.Lock()
		deliver := c.pending[id]
		delete(c.pending, id)
		c.pendMu.Unlock()
		if deliver != nil {
			deliver(rep)
		}
	}
}

// failAll fails every outstanding request with a disconnection reply. The
// error code travels with the reply so callers can errors.Is-match
// client.ErrDisconnected and engage their recovery path.
func (c *Conn) failAll(err error) {
	c.pendMu.Lock()
	// Requests stop registering once readErr or closed is set, so the first
	// call takes every pending request there will ever be.
	c.readErr = err
	pend := make([]func(Reply), 0, len(c.pending))
	for id, deliver := range c.pending {
		pend = append(pend, deliver)
		delete(c.pending, id)
	}
	c.pendMu.Unlock()
	if len(pend) == 0 {
		return
	}
	// Deliver outside pendMu (callback completions may issue new calls,
	// which take pendMu) AND off the caller's goroutine: failAll runs on
	// whichever goroutine observed the failure, which may be an AppendAfter
	// caller already holding the very lock a drained callback takes — e.g.
	// the event writer faulting a connection from sendBatch under its
	// segment lock, where synchronous delivery self-deadlocks. One
	// goroutine drains the whole batch so the failures stay ordered with
	// respect to each other.
	go func() {
		for _, deliver := range pend {
			deliver(Reply{Err: err.Error(), Code: codeDisconnected})
		}
	}()
}

// Err returns the terminal connection error, or nil while healthy.
func (c *Conn) Err() error {
	c.pendMu.Lock()
	defer c.pendMu.Unlock()
	if c.readErr != nil {
		return c.readErr
	}
	if c.closed {
		return net.ErrClosed
	}
	return nil
}

// Call sends a request and waits for its reply. A reply carrying an error
// is returned as an error whose chain includes the sentinel its code names
// (ReplyError).
func (c *Conn) Call(t MessageType, body any) (Reply, error) {
	ch, err := c.CallAsync(t, body)
	if err != nil {
		return Reply{}, err
	}
	rep := <-ch
	if rep.Err != "" {
		return rep, ReplyError(rep)
	}
	return rep, nil
}

// CallAsync sends a request; the reply arrives on the returned channel,
// which buffers it, so a caller may stop listening. Requests issued from
// one goroutine are written in order.
func (c *Conn) CallAsync(t MessageType, body any) (<-chan Reply, error) {
	ch := make(chan Reply, 1)
	if err := c.send(t, body, func(rep Reply) { ch <- rep }); err != nil {
		return nil, err
	}
	return ch, nil
}

// CallAsyncFunc sends a request with callback delivery: cb fires exactly
// once — from the connection's read goroutine (in server reply order, which
// for appends to one segment is submission order) or from failAll on
// connection loss. cb must not block.
func (c *Conn) CallAsyncFunc(t MessageType, body any, cb func(Reply)) error {
	return c.send(t, body, cb)
}

func (c *Conn) send(t MessageType, body any, deliver func(Reply)) error {
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	// The liveness check and the pending registration share one pendMu
	// critical section: if the read loop fails between them it cannot miss
	// this entry (failAll either already reported the error here, or will
	// drain the registration).
	c.pendMu.Lock()
	if c.readErr != nil || c.closed {
		err := c.readErr
		c.pendMu.Unlock()
		c.mu.Unlock()
		if err == nil {
			err = net.ErrClosed
		}
		return err
	}
	c.pending[id] = deliver
	c.pendMu.Unlock()
	err := writeFrame(c.wr, t, id, body)
	if err == nil {
		err = c.wr.Flush()
	}
	c.mu.Unlock()
	if err != nil {
		c.pendMu.Lock()
		_, reg := c.pending[id]
		delete(c.pending, id)
		c.pendMu.Unlock()
		if !reg {
			// The read loop died first: failAll took the registration and
			// reports the disconnection through it. Returning the write
			// error as well would complete the request twice.
			return nil
		}
		return err
	}
	return nil
}

// Close tears the connection down.
func (c *Conn) Close() error {
	c.pendMu.Lock()
	c.closed = true
	c.pendMu.Unlock()
	err := c.conn.Close()
	c.failAll(net.ErrClosed)
	return err
}
