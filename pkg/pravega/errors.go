package pravega

import (
	"errors"

	"github.com/pravega-go/pravega/internal/client"
	"github.com/pravega-go/pravega/internal/controller"
	"github.com/pravega-go/pravega/internal/segstore"
)

// Sentinel errors of the public client API. Errors returned by this package
// match these with errors.Is; where an error originates in an internal
// layer, errors.Is also matches the internal sentinel (the chain carries
// both), so existing code that tested internal sentinels keeps working while
// new code depends only on this package.
var (
	// ErrReaderClosed is returned by operations on a closed Reader.
	ErrReaderClosed = errors.New("pravega: reader closed")
	// ErrWriterClosed is returned by WriteEvent on a closed EventWriter.
	ErrWriterClosed = errors.New("pravega: writer closed")
	// ErrScopeExists is returned when creating a scope that already exists.
	ErrScopeExists = errors.New("pravega: scope already exists")
	// ErrScopeNotFound is returned for operations on an unknown scope.
	ErrScopeNotFound = errors.New("pravega: scope not found")
	// ErrStreamExists is returned when creating a stream that already exists.
	ErrStreamExists = errors.New("pravega: stream already exists")
	// ErrStreamNotFound is returned for operations on an unknown stream.
	ErrStreamNotFound = errors.New("pravega: stream not found")
	// ErrStreamSealed is returned when appending to (or scaling) a sealed
	// stream.
	ErrStreamSealed = errors.New("pravega: stream is sealed")
	// ErrSegmentSealed is returned for appends or reads addressed to a
	// sealed segment.
	ErrSegmentSealed = errors.New("pravega: segment is sealed")
	// ErrSegmentNotFound is returned for operations on an unknown segment.
	ErrSegmentNotFound = errors.New("pravega: segment not found")
	// ErrSegmentTruncated is returned when reading below a segment's
	// truncation point (retention moved the head past the offset).
	ErrSegmentTruncated = errors.New("pravega: offset below truncation point")
	// ErrTxnNotFound is returned for operations on an unknown transaction
	// (never begun, or already reaped after commit/abort).
	ErrTxnNotFound = errors.New("pravega: transaction not found")
	// ErrTxnNotOpen is returned when committing or writing to a transaction
	// that is no longer open (aborted, lease-expired, or already on the
	// other terminal path).
	ErrTxnNotOpen = errors.New("pravega: transaction is not open")
	// ErrTxnClosed is returned by WriteEvent on a transaction whose Commit
	// or Abort was already invoked locally.
	ErrTxnClosed = errors.New("pravega: transaction closed")
	// ErrDisconnected is returned by a System when an
	// operation could not complete because the connection to the server was
	// lost and not re-established within the retry window. Writers recover
	// from it transparently (their futures only fail after the window
	// elapses); synchronous callers may retry once connectivity returns.
	ErrDisconnected = errors.New("pravega: disconnected from server")
)

// apiError pairs a public sentinel with its internal cause. Unwrap returns
// both (Go 1.20 multi-error unwrapping), so errors.Is matches the public
// sentinel and the internal one.
type apiError struct {
	public error
	cause  error
}

func (e *apiError) Error() string   { return e.cause.Error() }
func (e *apiError) Unwrap() []error { return []error{e.public, e.cause} }

// sentinelPairs maps internal sentinels to their public counterparts, in
// match order.
var sentinelPairs = []struct{ internal, public error }{
	{segstore.ErrSegmentSealed, ErrSegmentSealed},
	{segstore.ErrSegmentNotFound, ErrSegmentNotFound},
	{segstore.ErrSegmentTruncated, ErrSegmentTruncated},
	{segstore.ErrSegmentExists, ErrSegmentExists},
	{controller.ErrScopeExists, ErrScopeExists},
	{controller.ErrScopeNotFound, ErrScopeNotFound},
	{controller.ErrStreamExists, ErrStreamExists},
	{controller.ErrStreamNotFound, ErrStreamNotFound},
	{controller.ErrStreamSealed, ErrStreamSealed},
	{controller.ErrTxnNotFound, ErrTxnNotFound},
	{controller.ErrTxnNotOpen, ErrTxnNotOpen},
	{client.ErrDisconnected, ErrDisconnected},
}

// ErrSegmentExists is returned when creating a segment that already exists
// (surfaces through advanced/admin paths).
var ErrSegmentExists = errors.New("pravega: segment already exists")

// convertErr translates an error crossing the API boundary: when the chain
// contains a known internal sentinel, the result additionally matches the
// public counterpart. The original message and chain are preserved.
func convertErr(err error) error {
	if err == nil {
		return nil
	}
	for _, p := range sentinelPairs {
		if errors.Is(err, p.internal) {
			return &apiError{public: p.public, cause: err}
		}
	}
	return err
}
