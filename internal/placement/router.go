// Package placement owns the data plane's one routing decision (§2.2,
// §4.4): a segment hashes to a segment container, and whichever store
// currently claims that container serves it. Router caches the
// container→store table stamped with the placement epoch, refreshes it on
// an epoch watch and on routing misses, and retries every synchronous
// operation inside one window with one backoff and one classification of
// what a failure says about the attempt. It is written against Store, a
// per-store transport with two implementations — Local (direct calls on a
// segstore.Store) and the wire protocol's pipelined connection — and
// Source, where placement comes from: the claim set in the coordination
// store (CoordSource) or a server's cluster-info message (internal/wire).
//
// The coord's controller and every client route through this type, so
// they share the retry window, the
// lost-ack rules for create/delete/merge, and the copy-and-delete merge
// across containers.
package placement

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pravega-go/pravega/internal/client"
	"github.com/pravega-go/pravega/internal/keyspace"
	"github.com/pravega-go/pravega/internal/obs"
	"github.com/pravega-go/pravega/internal/segment"
	"github.com/pravega-go/pravega/internal/segstore"
	"github.com/pravega-go/pravega/internal/wal"
)

// The series keep the names the wire client introduced them under.
var (
	mRefreshes = obs.Default().Counter("pravega_wire_client_placement_refreshes_total",
		"Placement-table refreshes triggered by routing misses or epoch changes")
	mWrongHostRetries = obs.Default().Counter("pravega_wire_client_wrong_host_retries_total",
		"Synchronous operations re-routed after a wrong-host reply")
)

// Store is one segment store's endpoint. Every method is a single attempt:
// the Router decides whether and where to try again.
type Store interface {
	// AppendAfter enqueues an append (prev as in segstore.Operation.Prev);
	// cb fires exactly once. cb may run on the calling goroutine when the
	// append cannot start (the wire server's reply queue tolerates that).
	AppendAfter(name string, data []byte, writerID string, prev, eventNum int64, eventCount int32, cb func(segstore.AppendResult))
	AppendConditional(name string, data []byte, expectedOffset int64) (int64, error)
	ReadCtx(ctx context.Context, name string, offset int64, maxBytes int, wait time.Duration) (segstore.ReadResult, error)
	GetInfo(name string) (segment.Info, error)
	WriterState(name, writerID string) (int64, error)
	CreateSegment(name string) error
	SealSegment(name string) (int64, error)
	TruncateSegment(name string, offset int64) error
	DeleteSegment(name string) error
	// MergeSegment is the container-local atomic merge.
	MergeSegment(target, source string) (int64, error)
	LoadReport() ([]segstore.SegmentLoad, error)
	Close()
}

// Endpoint identifies a store in a placement snapshot: ID is the claim
// holder's name, Addr the address a dialing transport reaches it on.
type Endpoint struct{ ID, Addr string }

// Snapshot is one view of placement. Containers absent from Owner are
// unowned right now (mid-failover).
type Snapshot struct {
	Epoch int64
	Total int // containers the segment key space hashes over
	Owner map[int]Endpoint
}

// Source supplies placement snapshots and blocks on the placement epoch.
type Source interface {
	Snapshot() (Snapshot, error)
	// WaitEpoch returns the current epoch once it exceeds known, when a poll
	// window lapses, or when stop closes.
	WaitEpoch(known int64, stop <-chan struct{}) (int64, error)
}

// ErrNotSent marks an attempt the transport never put on the wire (no live
// connection), so retrying it is safe for any operation. Transports wrap it
// together with client.ErrDisconnected.
var ErrNotSent = errors.New("placement: request not sent")

// IsDisconnect reports whether err is a transport failure rather than a
// server's error reply.
func IsDisconnect(err error) bool {
	if errors.Is(err, client.ErrDisconnected) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// class is what a failed attempt says about whether the operation ran.
type class int

const (
	permanent      class = iota // the store's answer; retrying cannot change it
	neverStarted                // wrong or unreachable host: retry any operation
	mayHaveStarted              // container stopped or WAL fenced mid-call: retry idempotent operations only
	onWire                      // connection died with the request out: retry, and remember the outcome is unknown
)

func classify(err error) class {
	switch {
	case errors.Is(err, ErrNotSent), errors.Is(err, client.ErrWrongHost), errors.Is(err, segstore.ErrWrongContainer):
		return neverStarted
	case errors.Is(err, segstore.ErrContainerDown), errors.Is(err, wal.ErrFenced):
		return mayHaveStarted
	case IsDisconnect(err):
		return onWire
	}
	return permanent
}

const (
	defaultWindow = 15 * time.Second
	minBackoff    = 5 * time.Millisecond
	maxBackoff    = 100 * time.Millisecond
)

// Config assembles a Router.
type Config struct {
	Source Source
	// Dial opens the transport to one store; it runs at most once per
	// endpoint for as long as snapshots keep naming that endpoint.
	Dial func(Endpoint) (Store, error)
	// Window bounds how long a synchronous operation keeps retrying (15s
	// when zero). A failover leaves a container unowned for up to a lease
	// TTL; the window rides that out.
	Window time.Duration
}

// table is an immutable container→store snapshot.
type table struct {
	epoch  int64
	stores []Store  // by container id; nil = unowned
	owners []string // endpoint ids, parallel to stores
}

func (t *table) container(name string) int {
	return keyspace.HashToContainer(segment.RoutingName(name), len(t.stores))
}

// route returns the store owning name's container. An unowned container
// (mid-failover) is a wrong-host miss: the operation never started.
func (t *table) route(name string) (Store, error) {
	id := t.container(name)
	if st := t.stores[id]; st != nil {
		return st, nil
	}
	return nil, fmt.Errorf("placement: container %d has no owner (epoch %d): %w", id, t.epoch, client.ErrWrongHost)
}

// Router routes segment operations to the stores owning their containers.
// It implements client.DataTransport and controller.DataPlane.
type Router struct {
	cfg   Config
	table atomic.Pointer[table]

	// refreshMu single-flights refreshes and guards dialed.
	refreshMu sync.Mutex
	dialed    map[Endpoint]Store

	stop      chan struct{}
	closeOnce sync.Once
	watchDone chan struct{}
}

// New loads the first placement snapshot and starts the epoch watch.
func New(cfg Config) (*Router, error) {
	if cfg.Window <= 0 {
		cfg.Window = defaultWindow
	}
	r := &Router{cfg: cfg, dialed: make(map[Endpoint]Store), stop: make(chan struct{}), watchDone: make(chan struct{})}
	if err := r.refresh(nil); err != nil {
		return nil, err
	}
	go r.watch()
	return r, nil
}

// Refresh reloads placement now (assembly code calls it after changing the
// claim set itself, instead of waiting for the epoch watch).
func (r *Router) Refresh() error { return r.refresh(r.table.Load()) }

// refresh replaces the table unless someone already replaced the one the
// caller routed with: concurrent misses on one table cost one snapshot.
func (r *Router) refresh(stale *table) error {
	r.refreshMu.Lock()
	defer r.refreshMu.Unlock()
	if r.table.Load() != stale || r.dialed == nil {
		return nil
	}
	snap, err := r.cfg.Source.Snapshot()
	if err != nil {
		return err
	}
	if snap.Total <= 0 {
		return fmt.Errorf("placement: snapshot with %d containers", snap.Total)
	}
	mRefreshes.Inc()
	t := &table{epoch: snap.Epoch, stores: make([]Store, snap.Total), owners: make([]string, snap.Total)}
	live := make(map[Endpoint]Store, len(r.dialed))
	for id, ep := range snap.Owner {
		if id < 0 || id >= snap.Total {
			continue
		}
		st, ok := r.dialed[ep]
		if !ok {
			if st, err = r.cfg.Dial(ep); err != nil {
				continue // unowned as far as routing goes; the next refresh redials
			}
			r.dialed[ep] = st
		}
		live[ep] = st
		t.stores[id], t.owners[id] = st, ep.ID
	}
	for ep, st := range r.dialed {
		if _, ok := live[ep]; !ok {
			st.Close()
		}
	}
	r.dialed = live
	r.table.Store(t)
	return nil
}

// watch refreshes the table whenever the placement epoch moves, so an idle
// caller re-pins to a new owner without paying a wrong-host round trip.
func (r *Router) watch() {
	defer close(r.watchDone)
	for {
		t := r.table.Load()
		epoch, err := r.cfg.Source.WaitEpoch(t.epoch, r.stop)
		if err != nil && classify(err) == permanent {
			return // the source serves no epoch watch; misses still refresh
		}
		if err == nil && epoch > t.epoch {
			err = r.refresh(t)
		}
		if err != nil && r.pause(bg, maxBackoff) != nil {
			return
		}
		select {
		case <-r.stop:
			return
		default:
		}
	}
}

// pause sleeps d unless ctx ends or the router closes first.
func (r *Router) pause(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-r.stop:
		return fmt.Errorf("placement: router closed: %w", client.ErrDisconnected)
	}
}

// Close stops the epoch watch and closes every store transport. In-flight
// operations fail with client.ErrDisconnected.
func (r *Router) Close() error {
	r.closeOnce.Do(func() { close(r.stop) })
	<-r.watchDone
	r.refreshMu.Lock()
	for _, st := range r.dialed {
		st.Close()
	}
	r.dialed = nil
	r.refreshMu.Unlock()
	return nil
}

// do runs op against the current owner of name's container until it
// succeeds, fails for good, or the window lapses; every retry refreshes
// placement first. ambiguous reports that some attempt died on the wire, so
// a non-idempotent operation may already have been applied.
func do[T any](r *Router, ctx context.Context, name string, idempotent bool, op func(Store) (T, error)) (v T, ambiguous bool, err error) {
	deadline := time.Now().Add(r.cfg.Window)
	backoff := minBackoff
	for {
		if err := ctx.Err(); err != nil {
			return v, ambiguous, err
		}
		t := r.table.Load()
		st, err := t.route(name)
		if err == nil {
			v, err = op(st)
		}
		if err == nil {
			return v, ambiguous, nil
		}
		switch classify(err) {
		case permanent:
			return v, ambiguous, err
		case neverStarted:
			if !errors.Is(err, ErrNotSent) {
				mWrongHostRetries.Inc()
			}
		case mayHaveStarted:
			if !idempotent {
				return v, ambiguous, err
			}
		case onWire:
			ambiguous = true
		}
		if !time.Now().Before(deadline) {
			return v, ambiguous, err
		}
		_ = r.refresh(t)
		if perr := r.pause(ctx, backoff); perr != nil {
			return v, ambiguous, perr
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// doErr is do for operations that return only an error.
func (r *Router) doErr(name string, idempotent bool, op func(Store) error) (ambiguous bool, err error) {
	_, ambiguous, err = do(r, bg, name, idempotent, func(st Store) (struct{}, error) { return struct{}{}, op(st) })
	return ambiguous, err
}

var bg = context.Background()

// AppendAfter routes an append with one table load and no retry: replay is
// the event writer's job, because only it can resend batches verbatim for
// server-side dedup (§3.2). An unowned container fails the append with
// client.ErrWrongHost; the writer's recovery handshake (WriterState) goes
// through do and refreshes placement.
func (r *Router) AppendAfter(name string, data []byte, writerID string, prev, eventNum int64, eventCount int32, cb func(segstore.AppendResult)) {
	st, err := r.table.Load().route(name)
	if err != nil {
		// Off the caller's goroutine: callers may hold the lock cb takes.
		go cb(segstore.AppendResult{Offset: -1, Err: err})
		return
	}
	st.AppendAfter(name, data, writerID, prev, eventNum, eventCount, cb)
}

// AppendAsync is AppendAfter without the predecessor check.
func (r *Router) AppendAsync(name string, data []byte, writerID string, eventNum int64, eventCount int32, cb func(segstore.AppendResult)) {
	r.AppendAfter(name, data, writerID, 0, eventNum, eventCount, cb)
}

// AppendConditional is guarded by its expected offset: a retry that raced an
// applied attempt surfaces as ErrConditionalFailed, which the state
// synchronizer resolves by refetching (§3.3).
func (r *Router) AppendConditional(name string, data []byte, expectedOffset int64) (int64, error) {
	off, _, err := do(r, bg, name, false, func(st Store) (int64, error) { return st.AppendConditional(name, data, expectedOffset) })
	return off, err
}

// Read is ReadCtx without cancellation. It stays for the benchmark's probes
// (bench/probes.go), which call it and are not edited with the code.
func (r *Router) Read(name string, offset int64, maxBytes int, wait time.Duration) (segstore.ReadResult, error) {
	return r.ReadCtx(bg, name, offset, maxBytes, wait)
}

// ReadCtx reads from a segment, long-polling up to wait at the tail: ctx
// ends both a long poll on the store and a retry wait in here.
func (r *Router) ReadCtx(ctx context.Context, name string, offset int64, maxBytes int, wait time.Duration) (segstore.ReadResult, error) {
	res, _, err := do(r, ctx, name, true, func(st Store) (segstore.ReadResult, error) {
		return st.ReadCtx(ctx, name, offset, maxBytes, wait)
	})
	return res, err
}

// GetInfo fetches segment metadata.
func (r *Router) GetInfo(name string) (segment.Info, error) {
	info, _, err := do(r, bg, name, true, func(st Store) (segment.Info, error) { return st.GetInfo(name) })
	return info, err
}

// WriterState returns the writer's last recorded event number (§3.2
// reconnection handshake).
func (r *Router) WriterState(name, writerID string) (int64, error) {
	n, _, err := do(r, bg, name, true, func(st Store) (int64, error) { return st.WriterState(name, writerID) })
	return n, err
}

// CreateSegment registers a segment. After an attempt whose ack was lost,
// "already exists" means that attempt created it.
func (r *Router) CreateSegment(name string) error {
	ambiguous, err := r.doErr(name, false, func(st Store) error { return st.CreateSegment(name) })
	if ambiguous && errors.Is(err, segstore.ErrSegmentExists) {
		return nil
	}
	return err
}

// SealSegment makes the segment read-only, returning its final length.
func (r *Router) SealSegment(name string) (int64, error) {
	n, _, err := do(r, bg, name, true, func(st Store) (int64, error) { return st.SealSegment(name) })
	return n, err
}

// TruncateSegment discards the segment prefix below offset.
func (r *Router) TruncateSegment(name string, offset int64) error {
	_, err := r.doErr(name, true, func(st Store) error { return st.TruncateSegment(name, offset) })
	return err
}

// DeleteSegment removes a segment. After an attempt whose ack was lost,
// "not found" means that attempt deleted it.
func (r *Router) DeleteSegment(name string) error {
	ambiguous, err := r.doErr(name, false, func(st Store) error { return st.DeleteSegment(name) })
	if ambiguous && errors.Is(err, segstore.ErrSegmentNotFound) {
		return nil
	}
	return err
}

// MergeSegment folds the sealed source segment into the target and returns
// the target offset where the merged bytes begin (transaction commit, §3.2).
//
// A transaction's shadow segment routes with its parent, so the common case
// is container-local and uses the store's single-WAL-op atomic merge. Merge
// is not idempotent: after an attempt whose ack was lost, a missing source
// means that attempt committed, and the offset is rebuilt from the target's
// length (exact while commits to one target are serialized, which the
// controller guarantees per stream segment). A wrong-host miss never
// started the merge and does not make the outcome ambiguous.
//
// When a scale sealed the parent mid-transaction the commit target is a
// successor that may hash to another container, possibly on another store.
// The merge then degrades to copy-and-delete: the source's bytes land in
// the target through one append (readers still observe all of them or
// none) under a writer identity derived from the source name, so the append
// pipeline's (writer, event) dedup makes a retry after a crash between copy
// and delete idempotent; only then is the source deleted. A
// dedup-short-circuited retry reports offset -1.
func (r *Router) MergeSegment(target, source string) (int64, error) {
	src, err := r.GetInfo(source)
	if err != nil {
		return 0, err
	}
	size := src.Length - src.StartOffset
	if t := r.table.Load(); t.container(target) == t.container(source) {
		off, ambiguous, err := do(r, bg, target, false, func(st Store) (int64, error) { return st.MergeSegment(target, source) })
		if ambiguous && errors.Is(err, segstore.ErrSegmentNotFound) {
			tgt, ierr := r.GetInfo(target)
			if ierr != nil {
				return 0, ierr
			}
			return max(tgt.Length-size, 0), nil
		}
		return off, err
	}

	if !src.Sealed {
		return 0, fmt.Errorf("%w: merge source %s", segstore.ErrSegmentNotSealed, source)
	}
	data := make([]byte, 0, size)
	for off := src.StartOffset; off < src.Length; {
		res, err := r.ReadCtx(bg, source, off, int(src.Length-off), 0)
		if err != nil {
			return 0, err
		}
		if len(res.Data) == 0 {
			return 0, fmt.Errorf("placement: merge read of %s stalled at offset %d", source, off)
		}
		data = append(data, res.Data...)
		off += int64(len(res.Data))
	}
	off := int64(-1)
	if len(data) > 0 {
		off, _, err = do(r, bg, target, true, func(st Store) (int64, error) {
			done := make(chan segstore.AppendResult, 1)
			st.AppendAfter(target, data, "txn-merge#"+source, 0, 1, 1, func(res segstore.AppendResult) { done <- res })
			res := <-done
			return res.Offset, res.Err
		})
		if err != nil {
			return 0, err
		}
	}
	if err := r.DeleteSegment(source); err != nil && !errors.Is(err, segstore.ErrSegmentNotFound) {
		return 0, err
	}
	return off, nil
}

// OwnerOf names the store claiming the segment's container in the current
// table (one lookup, no refresh).
func (r *Router) OwnerOf(name string) (string, error) {
	t := r.table.Load()
	if _, err := t.route(name); err != nil {
		return "", err
	}
	return t.owners[t.container(name)], nil
}

// LoadReports polls every store in the table for its per-segment rates.
// Unreachable stores are skipped — a partial report only delays a scaling
// decision.
func (r *Router) LoadReports() []segstore.SegmentLoad {
	var out []segstore.SegmentLoad
	seen := make(map[Store]struct{})
	for _, st := range r.table.Load().stores {
		if _, dup := seen[st]; st == nil || dup {
			continue
		}
		seen[st] = struct{}{}
		if loads, err := st.LoadReport(); err == nil {
			out = append(out, loads...)
		}
	}
	return out
}
