package wire

import (
	"context"
	"errors"
	"fmt"

	"github.com/pravega-go/pravega/internal/bookkeeper"
	"github.com/pravega-go/pravega/internal/client"
	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/controller"
	"github.com/pravega-go/pravega/internal/segstore"
	"github.com/pravega-go/pravega/internal/wal"
)

// Error codes carried in Reply.Code. A reply's Err string keeps the
// server-side message; the code names the sentinel in the error's chain so
// the client can rebuild an errors.Is-matchable error. Codes are part of
// the wire protocol: append only, never renumber.
const (
	codeNone = iota
	// Segment-store sentinels.
	codeSegmentExists
	codeSegmentNotFound
	codeSegmentSealed
	codeSegmentTruncated
	codeConditionalFailed
	codeContainerDown
	codeReadTimeout
	codeWrongContainer
	// Controller sentinels.
	codeScopeExists
	codeScopeNotFound
	codeStreamExists
	codeStreamNotFound
	codeStreamSealed
	codeBadScale
	// Transport / context.
	codeDisconnected
	codeCanceled
	codeDeadline
	// Transactions (appended in protocol order; never renumber).
	codeTxnNotFound
	codeTxnNotOpen
	codeSegmentNotSealed
	// Dynamic placement (lease-based container ownership).
	codeWrongHost
	// Remote coordination store (cluster.Store over the wire).
	codeNodeExists
	codeNoNode
	codeBadVersion
	codeNotEmpty
	codeSessionClosed
	codeNoParent
	// Remote bookies (bookkeeper.Node over the wire).
	codeLedgerFenced
	codeNoLedger
	codeNoEntry
	codeLedgerClosed
	codeNotEnoughBookies
	codeBookieDown
	codeOutOfOrder
)

// codeSentinels maps codes to the sentinel errors they name, in both
// directions. Match order matters on the encode side: more specific
// sentinels first.
var codeSentinels = []struct {
	code int
	err  error
}{
	{codeSegmentExists, segstore.ErrSegmentExists},
	{codeSegmentNotFound, segstore.ErrSegmentNotFound},
	{codeSegmentSealed, segstore.ErrSegmentSealed},
	{codeSegmentTruncated, segstore.ErrSegmentTruncated},
	{codeConditionalFailed, segstore.ErrConditionalFailed},
	{codeContainerDown, segstore.ErrContainerDown},
	{codeReadTimeout, segstore.ErrReadTimeout},
	{codeScopeExists, controller.ErrScopeExists},
	{codeScopeNotFound, controller.ErrScopeNotFound},
	{codeStreamExists, controller.ErrStreamExists},
	{codeStreamNotFound, controller.ErrStreamNotFound},
	{codeStreamSealed, controller.ErrStreamSealed},
	{codeBadScale, controller.ErrBadScale},
	{codeDisconnected, client.ErrDisconnected},
	{codeCanceled, context.Canceled},
	{codeDeadline, context.DeadlineExceeded},
	{codeTxnNotFound, controller.ErrTxnNotFound},
	{codeTxnNotOpen, controller.ErrTxnNotOpen},
	{codeSegmentNotSealed, segstore.ErrSegmentNotSealed},
	// "Routed to the wrong store", "this store doesn't host that container"
	// and "zombie WAL fenced by the new owner" all decode to
	// client.ErrWrongHost: the client-side cure is the same — refresh
	// placement and re-route. (codeWrongContainer is retired, not reused.)
	{codeWrongHost, client.ErrWrongHost},
	{codeWrongHost, segstore.ErrWrongContainer},
	{codeWrongHost, wal.ErrFenced},
	{codeNodeExists, cluster.ErrNodeExists},
	{codeNoNode, cluster.ErrNoNode},
	{codeBadVersion, cluster.ErrBadVersion},
	{codeNotEmpty, cluster.ErrNotEmpty},
	{codeSessionClosed, cluster.ErrSessionClosed},
	{codeNoParent, cluster.ErrNoParent},
	{codeLedgerFenced, bookkeeper.ErrFenced},
	{codeNoLedger, bookkeeper.ErrNoLedger},
	{codeNoEntry, bookkeeper.ErrNoEntry},
	{codeLedgerClosed, bookkeeper.ErrLedgerClosed},
	{codeNotEnoughBookies, bookkeeper.ErrNotEnough},
	{codeBookieDown, bookkeeper.ErrBookieDown},
	{codeOutOfOrder, segstore.ErrOutOfOrder},
}

// ErrCode returns the wire code for an error's sentinel, or codeNone when
// the chain holds no known sentinel.
func ErrCode(err error) int {
	if err == nil {
		return codeNone
	}
	for _, cs := range codeSentinels {
		if errors.Is(err, cs.err) {
			return cs.code
		}
	}
	return codeNone
}

// wireError carries a reply's message with the sentinel its code named, so
// errors.Is matches across the network boundary.
type wireError struct {
	sentinel error
	msg      string
	retry    bool // the container stopped mid-append or the append overtook a failed one
}

func (e *wireError) Error() string { return e.msg }

func (e *wireError) Unwrap() []error {
	if e.retry {
		return []error{e.sentinel, client.ErrRetryable}
	}
	return []error{e.sentinel}
}

// ReplyError reconstructs the error a reply describes: the message is the
// server's, and when the code names a sentinel, the chain includes it —
// with client.ErrRetryable beside it when the writer replays on it.
func ReplyError(rep Reply) error {
	if rep.Err == "" {
		return nil
	}
	for _, cs := range codeSentinels {
		if cs.code == rep.Code {
			retry := cs.code == codeContainerDown || cs.code == codeOutOfOrder
			return &wireError{sentinel: cs.err, msg: rep.Err, retry: retry}
		}
	}
	return fmt.Errorf("wire: %s", rep.Err)
}

// errReply builds a reply from an error (server side), stamping its code.
func errReply(err error, rep Reply) Reply {
	if err != nil {
		return Reply{Err: err.Error(), Code: ErrCode(err)}
	}
	return rep
}
