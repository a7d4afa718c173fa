package pravega

import (
	"context"
	"errors"
	"sync"
	"time"

	"github.com/pravega-go/pravega/internal/client"
	"github.com/pravega-go/pravega/internal/controller"
	"github.com/pravega-go/pravega/internal/keyspace"
	"github.com/pravega-go/pravega/internal/segstore"
)

// TxnStatus is a transaction's lifecycle state as reported by Status.
type TxnStatus string

// Transaction lifecycle states: open → committing → committed, or
// open/aborting → aborted (§3.2).
const (
	TxnOpen       TxnStatus = "open"
	TxnCommitting TxnStatus = "committing"
	TxnCommitted  TxnStatus = "committed"
	TxnAborting   TxnStatus = "aborting"
	TxnAborted    TxnStatus = "aborted"
)

// TxnWriterConfig parameterizes a TransactionalEventWriter.
type TxnWriterConfig struct {
	// Scope and Stream name the target stream.
	Scope  string
	Stream string
	// Lease bounds how long each transaction may stay open before the
	// controller's reaper aborts it (zero selects the controller default,
	// 30s).
	Lease time.Duration
	// ID identifies the writer for exactly-once deduplication within
	// transaction segments; generated when empty.
	ID string
}

// TransactionalEventWriter writes events into stream transactions (§3.2):
// each transaction buffers its events in per-parent-segment shadow
// segments, invisible to readers, until Commit atomically merges every
// shadow into its parent — all of the transaction's events become readable
// at once, or (on Abort or lease expiry) none ever do. Events route by
// routing key exactly like EventWriter's, so committed events preserve
// per-key order among themselves.
type TransactionalEventWriter struct {
	cfg  TxnWriterConfig
	sys  *System
	conn client.DataTransport
}

// NewTransactionalWriter creates a transactional writer for a stream.
func (s *System) NewTransactionalWriter(cfg TxnWriterConfig) (*TransactionalEventWriter, error) {
	if cfg.ID == "" {
		cfg.ID = randomID("txn-writer-")
	}
	// Surface unknown-stream errors at construction, like NewWriter.
	if _, err := s.client.GetActiveSegments(cfg.Scope, cfg.Stream); err != nil {
		return nil, convertErr(err)
	}
	return &TransactionalEventWriter{cfg: cfg, sys: s, conn: s.data}, nil
}

// ID returns the writer id used for deduplication.
func (w *TransactionalEventWriter) ID() string { return w.cfg.ID }

// Close holds nothing to release: the writer shares its System's client.
// Transactions begun by it remain open on the controller until committed,
// aborted, or lease-expired.
func (w *TransactionalEventWriter) Close() error { return nil }

// BeginTxn opens a transaction on the stream. The returned Txn owns one
// shadow segment per active parent segment; its WriteEvent routes by key
// over the parents' ranges, exactly like a plain writer.
func (w *TransactionalEventWriter) BeginTxn(ctx context.Context) (*Txn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	type res struct {
		info controller.TxnInfo
		err  error
	}
	done := make(chan res, 1)
	go func() {
		info, err := w.sys.client.BeginTxn(w.cfg.Scope, w.cfg.Stream, w.cfg.Lease)
		done <- res{info, convertErr(err)}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			return nil, r.err
		}
		return &Txn{w: w, id: r.info.ID, route: r.info.Segments, writerID: w.cfg.ID + "-" + r.info.ID}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Txn is one open transaction. WriteEvent may be called from multiple
// goroutines; Commit and Abort are terminal — after either, WriteEvent
// fails with ErrTxnClosed.
type Txn struct {
	w     *TransactionalEventWriter
	id    string
	route []controller.TxnSegment
	// writerID scopes dedup state to this transaction: its shadow segments
	// are born with the transaction, so their writer attributes must not
	// collide with another transaction's from the same writer.
	writerID string

	mu      sync.Mutex
	closed  bool
	seq     int64
	futures []*WriteFuture
}

// ID returns the transaction's identifier.
func (t *Txn) ID() string { return t.id }

// WriteEvent appends an event to the transaction, routed by key to the
// shadow segment of the parent covering that key. The returned future
// resolves when the event is durable in the shadow segment — it is NOT
// readable until Commit. Events sharing a routing key are appended in
// WriteEvent order.
func (t *Txn) WriteEvent(routingKey string, event []byte) *WriteFuture {
	f := newFuture()
	h := keyspace.HashKey(routingKey)
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		f.complete(ErrTxnClosed)
		return f
	}
	var shadow string
	for _, ts := range t.route {
		if ts.Parent.KeyRange.Contains(h) {
			shadow = ts.Shadow
			break
		}
	}
	if shadow == "" {
		t.mu.Unlock()
		f.complete(errors.New("pravega: no transaction segment covers key"))
		return f
	}
	t.seq++
	t.futures = append(t.futures, f)
	// Issued under t.mu so appends to one shadow segment are submitted in
	// WriteEvent order; the transport preserves per-segment FIFO from there.
	t.w.conn.AppendAfter(shadow, appendEventFrame(nil, event), t.writerID, 0, t.seq, 1,
		func(r segstore.AppendResult) { f.complete(convertErr(r.Err)) })
	t.mu.Unlock()
	return f
}

// flush waits for every write issued so far, failing on the first error.
func (t *Txn) flush(ctx context.Context) error {
	t.mu.Lock()
	futs := append([]*WriteFuture(nil), t.futures...)
	t.mu.Unlock()
	for _, f := range futs {
		if err := f.Wait(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Commit atomically publishes the transaction: every shadow segment is
// merged into its parent stream segment in one atomic metadata operation
// per parent, so readers observe either all of the transaction's events or
// none. Commit first waits for every WriteEvent to be durable; if any
// write failed, the commit does not proceed (Abort is still possible).
// Cancelling ctx abandons the wait — the controller may still complete the
// commit; check Status.
func (t *Txn) Commit(ctx context.Context) error {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	if err := t.flush(ctx); err != nil {
		return err
	}
	return runCtx(ctx, func() error {
		return convertErr(t.w.sys.client.CommitTxn(t.w.cfg.Scope, t.w.cfg.Stream, t.id))
	})
}

// Abort discards the transaction: its shadow segments are deleted and none
// of its events ever become readable.
func (t *Txn) Abort(ctx context.Context) error {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	return runCtx(ctx, func() error {
		return convertErr(t.w.sys.client.AbortTxn(t.w.cfg.Scope, t.w.cfg.Stream, t.id))
	})
}

// Status reports the transaction's lifecycle state on the controller.
func (t *Txn) Status(ctx context.Context) (TxnStatus, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	type res struct {
		state controller.TxnState
		err   error
	}
	done := make(chan res, 1)
	go func() {
		state, err := t.w.sys.client.TxnStatus(t.w.cfg.Scope, t.w.cfg.Stream, t.id)
		done <- res{state, convertErr(err)}
	}()
	select {
	case r := <-done:
		return TxnStatus(r.state), r.err
	case <-ctx.Done():
		return "", ctx.Err()
	}
}
