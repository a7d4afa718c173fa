package controller

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"github.com/pravega-go/pravega/internal/segment"
	"github.com/pravega-go/pravega/internal/segstore"
)

// Stream transactions (§3.2): a writer appends into per-transaction shadow
// segments — one per parent segment, invisible to readers — and the
// controller commits the transaction by atomically merging each shadow into
// its parent on the segment store, or aborts it by deleting the shadows.
// Transaction records are persisted alongside the stream metadata, so open
// transactions survive controller failover: the reaper loop of the instance
// that takes over a stream's partition aborts expired transactions and
// rolls committing ones forward.

// Transaction errors.
var (
	ErrTxnNotFound = errors.New("controller: transaction not found")
	ErrTxnNotOpen  = errors.New("controller: transaction is not open")
)

// TxnState enumerates a transaction's lifecycle states.
type TxnState string

// Transaction lifecycle: open → committing → committed, or
// open → aborting → aborted. The two-phase committing/aborting states are
// the persisted intent that makes the data-plane work restartable.
const (
	TxnOpen       TxnState = "open"
	TxnCommitting TxnState = "committing"
	TxnCommitted  TxnState = "committed"
	TxnAborting   TxnState = "aborting"
	TxnAborted    TxnState = "aborted"
)

// TxnRecord is the controller's persisted metadata for one transaction.
type TxnRecord struct {
	ID    string   `json:"id"`
	State TxnState `json:"state"`
	// Parents snapshots the active segment numbers at BeginTxn time; the
	// shadow segment names derive from them.
	Parents []int64 `json:"parents"`
	// LeaseDeadline is when the abort reaper may expire an open
	// transaction.
	LeaseDeadline time.Time `json:"leaseDeadline"`
}

// TxnSegment pairs one parent segment (with its key range, for routing)
// with the transaction's shadow segment on it.
type TxnSegment struct {
	Parent SegmentWithRange `json:"parent"`
	Shadow string           `json:"shadow"`
}

// TxnInfo is what BeginTxn hands the client: the transaction id and the
// shadow segment for every active parent, keyed by the parents' ranges so
// the transactional writer routes events exactly like a plain writer.
type TxnInfo struct {
	ID            string       `json:"id"`
	Segments      []TxnSegment `json:"segments"`
	LeaseDeadline time.Time    `json:"leaseDeadline"`
}

// newTxnID returns a 128-bit random hex transaction id. Random (not
// time-derived) ids cannot collide across concurrent BeginTxn calls.
func newTxnID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("controller: reading random txn id: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// BeginTxn opens a transaction on the stream: it snapshots the active
// segments, creates one shadow segment per parent on the data plane, and
// persists the record. lease bounds how long the transaction may stay open
// before the reaper aborts it (≤ 0 selects the 30 s default).
func (c *Controller) BeginTxn(scope, name string, lease time.Duration) (TxnInfo, error) {
	if lease <= 0 {
		lease = 30 * time.Second
	}
	c.mu.Lock()
	st, err := c.stream(scope, name)
	if err != nil {
		c.mu.Unlock()
		return TxnInfo{}, err
	}
	if st.sealed {
		c.mu.Unlock()
		return TxnInfo{}, fmt.Errorf("%w: %s/%s", ErrStreamSealed, scope, name)
	}
	id := newTxnID()
	parents := st.activeSegments()
	rec := &TxnRecord{ID: id, State: TxnOpen, LeaseDeadline: time.Now().Add(lease)}
	info := TxnInfo{ID: id, LeaseDeadline: rec.LeaseDeadline}
	shadows := make([]string, 0, len(parents))
	for _, p := range parents {
		rec.Parents = append(rec.Parents, p.ID.Number)
		shadow := segment.TxnSegmentName(p.ID.QualifiedName(), id)
		shadows = append(shadows, shadow)
		info.Segments = append(info.Segments, TxnSegment{Parent: p, Shadow: shadow})
	}
	if st.txns == nil {
		st.txns = make(map[string]*TxnRecord)
	}
	st.txns[id] = rec
	key := scopedName(scope, name)
	c.mu.Unlock()

	if err := c.createSegments(shadows); err != nil {
		c.mu.Lock()
		delete(st.txns, id)
		c.mu.Unlock()
		return TxnInfo{}, fmt.Errorf("controller: creating txn segment: %w", err)
	}
	if err := c.persist(key); err != nil {
		return TxnInfo{}, err
	}
	return info, nil
}

// txnRecord looks a transaction up under c.mu.
func (c *Controller) txnRecord(scope, name, txnID string) (*streamState, *TxnRecord, error) {
	st, err := c.stream(scope, name)
	if err != nil {
		return nil, nil, err
	}
	rec, ok := st.txns[txnID]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s in %s/%s", ErrTxnNotFound, txnID, scope, name)
	}
	return st, rec, nil
}

// CommitTxn commits a transaction: the persisted state flips to
// committing, then every shadow segment is sealed and atomically merged
// into its parent (or, when a scaling event sealed the parent mid-
// transaction, into the active successor covering the parent's range).
// Each merge is a single atomic segment-store operation, so a crash at any
// point leaves every parent either fully extended or untouched; re-running
// CommitTxn — by the caller or the reaper rolling the committing record
// forward — finishes the remaining merges idempotently. Committing an
// already-committed transaction returns nil.
func (c *Controller) CommitTxn(scope, name, txnID string) error {
	c.mu.Lock()
	st, rec, err := c.txnRecord(scope, name, txnID)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	switch rec.State {
	case TxnCommitted:
		c.mu.Unlock()
		return nil
	case TxnAborting, TxnAborted:
		c.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrTxnNotOpen, txnID, rec.State)
	case TxnOpen:
		if time.Now().After(rec.LeaseDeadline) {
			// The lease expired; the reaper may already be aborting. Refuse
			// rather than race it.
			rec.State = TxnAborting
			c.mu.Unlock()
			return fmt.Errorf("%w: %s lease expired", ErrTxnNotOpen, txnID)
		}
		rec.State = TxnCommitting
	case TxnCommitting:
		// Roll forward.
	}
	parents := append([]int64(nil), rec.Parents...)
	key := scopedName(scope, name)
	c.mu.Unlock()

	// Persist the committing intent before any data-plane effect: a
	// controller crash after the first merge must not leave the transaction
	// half-committed with no record demanding roll-forward.
	if err := c.persist(key); err != nil {
		return err
	}

	for _, pn := range parents {
		if err := c.mergeOneShadow(st, scope, name, txnID, pn); err != nil {
			return err
		}
	}

	c.mu.Lock()
	rec.State = TxnCommitted
	c.mu.Unlock()
	return c.persist(key)
}

// mergeOneShadow seals and merges one parent's shadow segment. A shadow
// that no longer exists was already merged by a previous attempt.
func (c *Controller) mergeOneShadow(st *streamState, scope, name, txnID string, parentNum int64) error {
	c.mu.Lock()
	prec, ok := st.segments[parentNum]
	if !ok {
		// Parent retired by retention — nothing to merge into; treat the
		// shadow as expendable history and drop it.
		c.mu.Unlock()
		return nil
	}
	parentQN := prec.ID.QualifiedName()
	c.mu.Unlock()
	shadow := segment.TxnSegmentName(parentQN, txnID)

	if _, err := c.cfg.Data.SealSegment(shadow); err != nil {
		if errors.Is(err, segstore.ErrSegmentNotFound) {
			return nil // already merged (the merge deletes its source)
		}
		if !errors.Is(err, segstore.ErrSegmentSealed) {
			return fmt.Errorf("controller: sealing txn segment %s: %w", shadow, err)
		}
	}

	target, err := c.commitTarget(st, scope, name, parentNum)
	if err != nil {
		return err
	}
	if _, err := c.cfg.Data.MergeSegment(target, shadow); err != nil {
		if errors.Is(err, segstore.ErrSegmentNotFound) {
			// Ambiguous: the shadow may be gone (merge already applied) or
			// the target may be missing. Re-check the shadow.
			if _, ierr := c.cfg.Data.GetInfo(shadow); errors.Is(ierr, segstore.ErrSegmentNotFound) {
				return nil
			}
		}
		if errors.Is(err, segstore.ErrSegmentSealed) {
			// The target sealed between resolution and merge (a concurrent
			// scale); resolve again against the new epoch.
			target, rerr := c.commitTarget(st, scope, name, parentNum)
			if rerr != nil {
				return rerr
			}
			if _, merr := c.cfg.Data.MergeSegment(target, shadow); merr == nil {
				return nil
			}
		}
		return fmt.Errorf("controller: merging txn segment %s into %s: %w", shadow, target, err)
	}
	return nil
}

// commitTarget resolves which segment a parent's shadow merges into: the
// parent itself while it is open, or — after a scaling event sealed it —
// the active successor covering the parent range's low bound. The whole
// shadow lands in one successor, which preserves commit atomicity and
// per-key order among the transaction's own events; see DESIGN.md
// §Transactions for the key-to-range caveat this trades away after a
// mid-transaction scale.
func (c *Controller) commitTarget(st *streamState, scope, name string, parentNum int64) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	prec, ok := st.segments[parentNum]
	if !ok {
		return "", fmt.Errorf("controller: txn parent segment %d gone in %s/%s", parentNum, scope, name)
	}
	if !prec.Sealed {
		return prec.ID.QualifiedName(), nil
	}
	if st.sealed {
		return "", fmt.Errorf("%w: %s/%s", ErrStreamSealed, scope, name)
	}
	for _, sw := range st.activeSegments() {
		if sw.KeyRange.Contains(prec.KeyRange.Low) {
			return sw.ID.QualifiedName(), nil
		}
	}
	return "", fmt.Errorf("controller: no active successor covers segment %d in %s/%s", parentNum, scope, name)
}

// AbortTxn aborts a transaction, deleting its shadow segments (and
// reclaiming their cache and index state on the segment stores). Aborting
// an already-aborted transaction returns nil; a committing or committed
// transaction cannot be aborted.
func (c *Controller) AbortTxn(scope, name, txnID string) error {
	c.mu.Lock()
	st, rec, err := c.txnRecord(scope, name, txnID)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	switch rec.State {
	case TxnAborted:
		c.mu.Unlock()
		return nil
	case TxnCommitting, TxnCommitted:
		c.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrTxnNotOpen, txnID, rec.State)
	default:
		rec.State = TxnAborting
	}
	parents := append([]int64(nil), rec.Parents...)
	key := scopedName(scope, name)
	c.mu.Unlock()

	if err := c.persist(key); err != nil {
		return err
	}
	for _, pn := range parents {
		c.mu.Lock()
		prec, ok := st.segments[pn]
		var parentQN string
		if ok {
			parentQN = prec.ID.QualifiedName()
		}
		c.mu.Unlock()
		if !ok {
			continue
		}
		shadow := segment.TxnSegmentName(parentQN, txnID)
		if err := c.cfg.Data.DeleteSegment(shadow); err != nil && !errors.Is(err, segstore.ErrSegmentNotFound) {
			return fmt.Errorf("controller: deleting txn segment %s: %w", shadow, err)
		}
	}
	c.mu.Lock()
	rec.State = TxnAborted
	c.mu.Unlock()
	return c.persist(key)
}

// TxnStatus reports a transaction's current lifecycle state.
func (c *Controller) TxnStatus(scope, name, txnID string) (TxnState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, rec, err := c.txnRecord(scope, name, txnID)
	if err != nil {
		return "", err
	}
	return rec.State, nil
}

// evaluateTxns is the transaction reaper (one of the policy loops): it
// aborts open transactions whose lease expired and finishes the data-plane
// work of transactions left mid-commit or mid-abort — including by a
// controller that died, since records persist and its restart reloads them
// (§2.2).
func (c *Controller) evaluateTxns() {
	type job struct {
		scope, name, id string
		commit          bool
	}
	var jobs []job
	c.mu.Lock()
	now := time.Now()
	for _, st := range c.streams {
		if st.deleted {
			continue
		}
		for id, rec := range st.txns {
			switch rec.State {
			case TxnOpen:
				if now.After(rec.LeaseDeadline) {
					jobs = append(jobs, job{st.cfg.Scope, st.cfg.Name, id, false})
				}
			case TxnCommitting:
				jobs = append(jobs, job{st.cfg.Scope, st.cfg.Name, id, true})
			case TxnAborting:
				jobs = append(jobs, job{st.cfg.Scope, st.cfg.Name, id, false})
			}
		}
	}
	c.mu.Unlock()

	for _, j := range jobs {
		if j.commit {
			_ = c.CommitTxn(j.scope, j.name, j.id)
		} else {
			_ = c.abortExpired(j.scope, j.name, j.id)
		}
	}
}

// abortExpired is AbortTxn minus the lease check: the reaper forces an
// open transaction past its deadline into the aborting path.
func (c *Controller) abortExpired(scope, name, txnID string) error {
	c.mu.Lock()
	_, rec, err := c.txnRecord(scope, name, txnID)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	if rec.State == TxnOpen {
		rec.State = TxnAborting
	}
	state := rec.State
	c.mu.Unlock()
	if state != TxnAborting {
		return nil
	}
	return c.AbortTxn(scope, name, txnID)
}
