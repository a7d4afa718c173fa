// Package client defines the transport boundary between the pkg/pravega
// client stack (event writers, readers, reader groups, state synchronizer,
// KV tables) and the server side of the system. The data side has one
// implementation, placement.Router, over two per-store transports: direct
// calls in process (behind hosting.Conn's links, used by tests and
// benchmarks) and the wire protocol behind pravega.Connect, which speaks the
// binary segment-store protocol over TCP (§2.2, §3.2 of the paper). The
// control side is the controller itself or the wire client. The client
// stack depends only on these interfaces, so every higher-level guarantee —
// exactly-once appends, reader-group coordination, scaling — holds
// identically over both transports.
package client

import (
	"context"
	"errors"
	"time"

	"github.com/pravega-go/pravega/internal/controller"
	"github.com/pravega-go/pravega/internal/keyspace"
	"github.com/pravega-go/pravega/internal/segment"
	"github.com/pravega-go/pravega/internal/segstore"
)

// ErrDisconnected reports that the transport lost its connection to the
// server. In-flight operations fail with it (wrapped with the underlying
// cause); the wire transport reconnects with capped exponential backoff in
// the background, so retrying the operation is safe once the writer has
// re-established its position via WriterState (§3.2 reconnection
// handshake).
var ErrDisconnected = errors.New("client: disconnected")

// ErrWrongHost reports that the store an operation was routed to does not
// currently own the target container — it moved (failover, rebalance) or is
// momentarily unowned mid-handoff. Unlike ErrDisconnected this says nothing
// about connection health: the fix is to refresh placement and re-route,
// not to reconnect. The operation never started, so retrying any operation
// on it is safe.
var ErrWrongHost = errors.New("client: wrong host for container")

// DataTransport is the client's path to segment stores: appends, reads and
// segment metadata. Implementations route each segment to its owning
// container (in process or over one pooled connection per store) and
// preserve FIFO order for appends issued from one goroutine to one
// segment — the property per-key event ordering rests on (§3.2).
type DataTransport interface {
	// AppendAsync enqueues an append and returns immediately; cb fires
	// exactly once when the append is durable or has failed. Callbacks for
	// appends to the same segment fire in submission order. cb runs on a
	// transport-internal goroutine and must not block.
	AppendAsync(name string, data []byte, writerID string, eventNum int64, eventCount int32, cb func(segstore.AppendResult))
	// AppendConditional appends only if the segment length equals
	// expectedOffset (the state synchronizer's optimistic-concurrency
	// primitive, §3.3).
	AppendConditional(name string, data []byte, expectedOffset int64) (int64, error)
	// ReadCtx returns available bytes at offset, long-polling up to wait
	// when the offset is at the tail. Cancellation is plumbed to the
	// server-side long poll: a tail read unblocks as soon as ctx is done.
	ReadCtx(ctx context.Context, name string, offset int64, maxBytes int, wait time.Duration) (segstore.ReadResult, error)
	// GetInfo fetches segment metadata.
	GetInfo(name string) (segment.Info, error)
	// WriterState returns the writer's last recorded event number on the
	// segment, or -1 when unknown (§3.2 reconnection handshake).
	WriterState(name, writerID string) (int64, error)
	// CreateSegment registers a raw segment (reader-group state and KV
	// table backing segments live outside stream metadata).
	CreateSegment(name string) error
	// MergeSegment atomically appends the sealed source segment's bytes to
	// the target and deletes the source, returning the offset in the target
	// where the merged bytes begin — the transaction-commit primitive
	// (§3.2). Transaction shadow segments route by their parent's name, so
	// the pair normally shares a container and the merge is one atomic
	// operation; after a scale moved the target elsewhere the transport
	// copies and deletes instead (readers still see all bytes or none).
	MergeSegment(target, source string) (int64, error)
	// Close releases the transport's resources. In-flight operations fail
	// with ErrDisconnected.
	Close() error
}

// ControlTransport is the client's path to the controller: stream lifecycle
// and the epoch-graph queries writers and readers traverse across scaling
// events (§3.1). The method set mirrors controller.Controller, which is the
// in-process implementation.
type ControlTransport interface {
	CreateScope(scope string) error
	CreateStream(cfg controller.StreamConfig) error
	GetActiveSegments(scope, stream string) ([]controller.SegmentWithRange, error)
	GetSuccessors(scope, stream string, segNumber int64) ([]controller.SuccessorRecord, error)
	GetHeadSegments(scope, stream string) ([]controller.HeadSegment, error)
	Scale(scope, stream string, seal []int64, newRanges []keyspace.Range) error
	SealStream(scope, stream string) error
	TruncateStream(scope, stream string, cut controller.StreamCut) error
	DeleteStream(scope, stream string) error
	StreamConfigOf(scope, stream string) (controller.StreamConfig, error)
	UpdateStreamPolicies(scope, stream string, scaling *controller.ScalingPolicy, retention *controller.RetentionPolicy) error
	IsStreamSealed(scope, stream string) (bool, error)
	SegmentCount(scope, stream string) (int, error)
	// Transactions (§3.2): BeginTxn opens a transaction with one shadow
	// segment per active parent segment; CommitTxn atomically merges every
	// shadow into its parent; AbortTxn deletes the shadows. A lease ≤ 0
	// selects the controller's default.
	BeginTxn(scope, stream string, lease time.Duration) (controller.TxnInfo, error)
	CommitTxn(scope, stream, txnID string) error
	AbortTxn(scope, stream, txnID string) error
	TxnStatus(scope, stream, txnID string) (controller.TxnState, error)
}

// The in-process controller satisfies ControlTransport directly.
var _ ControlTransport = (*controller.Controller)(nil)
