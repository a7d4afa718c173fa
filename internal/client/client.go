// Package client defines the data-transport boundary between the
// pkg/pravega client stack (event writers, readers, reader groups, state
// synchronizer, KV tables) and the segment stores. Its one implementation
// is the wire client (internal/wire), whose placement.Router routes each
// segment to its store over one pipelined connection per store — TCP for
// pravega.Connect, in-memory links for pravega.NewInProcess (§2.2, §3.2 of
// the paper). Tests wrap it to inject faults and count calls; the control
// plane needs no such seam and is the wire client itself.
package client

import (
	"context"
	"errors"
	"time"

	"github.com/pravega-go/pravega/internal/segment"
	"github.com/pravega-go/pravega/internal/segstore"
)

// ErrRetryable marks a failure the event writer resolves by parking the
// batch and replaying it through the WriterState handshake (§3.2): the
// connection was lost, the container moved or stopped mid-append, or the
// batch overtook one that failed. The wire client marks every such error it
// makes or decodes, so the writer asks one question of an append's error.
var ErrRetryable = errors.New("client: retryable")

// ErrDisconnected reports that the transport lost its connection to the
// server. In-flight operations fail with it (wrapped with the underlying
// cause); the wire transport reconnects with capped exponential backoff in
// the background, so retrying the operation is safe once the writer has
// re-established its position via WriterState (§3.2 reconnection
// handshake). It is retryable.
var ErrDisconnected error = retryable("client: disconnected")

// ErrWrongHost reports that the store an operation was routed to does not
// currently own the target container — it moved (failover, rebalance) or is
// momentarily unowned mid-handoff. Unlike ErrDisconnected this says nothing
// about connection health: the fix is to refresh placement and re-route,
// not to reconnect. The operation never started, so retrying any operation
// on it is safe; it is retryable.
var ErrWrongHost error = retryable("client: wrong host for container")

// retryable is a sentinel whose chain holds ErrRetryable.
type retryable string

func (e retryable) Error() string { return string(e) }
func (retryable) Unwrap() error   { return ErrRetryable }

// DataTransport is the client's path to segment stores: appends, reads and
// segment metadata. Implementations route each segment to its owning
// container over one pooled connection per store and preserve FIFO order
// for appends issued from one goroutine to one segment — the property
// per-key event ordering rests on (§3.2).
type DataTransport interface {
	// AppendAfter enqueues an append and returns immediately; cb fires
	// exactly once when the append is durable or has failed. Callbacks for
	// appends to the same segment fire in submission order. cb runs on a
	// transport-internal goroutine and must not block. prev is the writer's
	// previous event number on the segment (segstore.Operation.Prev).
	// AppendAfter does not keep data after it returns: the bytes are on
	// their way (written to the connection) or the append has failed, so
	// the caller may reuse the buffer at once. (A Router over
	// placement.Local stores, which hand data to the container by
	// reference, does keep it; the client runs over the wire.)
	AppendAfter(name string, data []byte, writerID string, prev, eventNum int64, eventCount int32, cb func(segstore.AppendResult))
	// AppendConditional appends only if the segment length equals
	// expectedOffset (the state synchronizer's optimistic-concurrency
	// primitive, §3.3).
	AppendConditional(name string, data []byte, expectedOffset int64) (int64, error)
	// ReadCtx returns available bytes at offset, long-polling up to wait
	// when the offset is at the tail. It returns ctx.Err() as soon as ctx is
	// done; a remote transport abandons the reply, and the server's wait
	// ends with its bound, with data, or with the connection.
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
}
