// Package kvtable implements key-value tables backed by a Pravega segment —
// the facility Pravega uses for its own metadata: the controller's stream
// metadata and the storage writer's LTS chunk metadata are "stored in
// Pravega itself via the key-value tables API" with conditional updates and
// multi-key transactions (§2.2, §4.3 of the paper).
//
// A table is a replicated state machine over a totally ordered update log
// (the state synchronizer): every mutation is appended as a transaction
// record carrying per-key expected versions; the conditions are evaluated
// deterministically at apply time, so every replica agrees on which
// transactions committed. Concurrent conflicting updates therefore never
// leave the table inconsistent — a writer whose condition failed observes
// ErrVersionMismatch and can retry from fresh state.
package kvtable

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/pravega-go/pravega/internal/statesync"
)

// Errors returned by table operations.
var (
	// ErrVersionMismatch reports a failed conditional update.
	ErrVersionMismatch = errors.New("kvtable: version mismatch")
	// ErrEmptyTxn rejects transactions with no operations.
	ErrEmptyTxn = errors.New("kvtable: empty transaction")
)

// Version sentinels for conditional operations.
const (
	// AnyVersion makes the operation unconditional.
	AnyVersion int64 = -1
	// NotExists requires the key to be absent.
	NotExists int64 = -2
)

// Entry is one key's current state.
type Entry struct {
	Key     string
	Value   []byte
	Version int64 // increments on every committed change to the key
}

// TxnOp is one operation inside a transaction.
type TxnOp struct {
	// Delete removes the key instead of writing Value.
	Delete bool   `json:"delete,omitempty"`
	Key    string `json:"key"`
	Value  []byte `json:"value,omitempty"`
	// Expected is the required current version (AnyVersion, NotExists, or
	// an exact version from a previous read).
	Expected int64 `json:"expected"`
}

// txnRecord is the serialized log entry.
type txnRecord struct {
	ID  int64   `json:"id"`
	Ops []TxnOp `json:"ops"`
}

// Table is a replicated key-value table. Multiple Table instances over the
// same backing segment converge to identical state.
type Table struct {
	sync *statesync.Synchronizer

	mu      sync.Mutex
	entries map[string]*Entry
	// outcome records whether recently applied transactions committed,
	// keyed by transaction id (bounded ring).
	outcome   map[int64]bool
	outcomeQ  []int64
	idCounter atomic.Int64
	instance  int64 // distinguishes ids across table instances
}

// New creates a table over the backing update log.
func New(b statesync.Backing, instanceID int64) *Table {
	t := &Table{
		entries:  make(map[string]*Entry),
		outcome:  make(map[int64]bool),
		instance: instanceID,
	}
	t.sync = statesync.New(b, t.apply)
	return t
}

const outcomeWindow = 1024

// apply is the deterministic transaction processor.
func (t *Table) apply(update []byte) {
	var rec txnRecord
	if err := json.Unmarshal(update, &rec); err != nil {
		return // not a record we wrote; ignore
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	committed := true
	for _, op := range rec.Ops {
		cur, exists := t.entries[op.Key]
		switch {
		case op.Expected == AnyVersion:
		case op.Expected == NotExists:
			if exists {
				committed = false
			}
		case !exists || cur.Version != op.Expected:
			committed = false
		}
		if !committed {
			break
		}
	}
	if committed {
		for _, op := range rec.Ops {
			if op.Delete {
				delete(t.entries, op.Key)
				continue
			}
			next := int64(0)
			if cur, ok := t.entries[op.Key]; ok {
				next = cur.Version + 1
			}
			t.entries[op.Key] = &Entry{
				Key:     op.Key,
				Value:   append([]byte(nil), op.Value...),
				Version: next,
			}
		}
	}
	t.outcome[rec.ID] = committed
	t.outcomeQ = append(t.outcomeQ, rec.ID)
	if len(t.outcomeQ) > outcomeWindow {
		delete(t.outcome, t.outcomeQ[0])
		t.outcomeQ = t.outcomeQ[1:]
	}
}

// Refresh applies all updates committed by other instances.
func (t *Table) Refresh() error { return t.sync.Fetch() }

// Get returns the key's current entry. It refreshes first, so reads see
// every update committed before the call.
func (t *Table) Get(key string) (Entry, bool, error) {
	if err := t.Refresh(); err != nil {
		return Entry{}, false, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[key]
	if !ok {
		return Entry{}, false, nil
	}
	return Entry{Key: e.Key, Value: append([]byte(nil), e.Value...), Version: e.Version}, true, nil
}

// Put writes key=value conditionally on expected (AnyVersion, NotExists or
// an exact version). It returns the key's new version.
func (t *Table) Put(key string, value []byte, expected int64) (int64, error) {
	err := t.Txn([]TxnOp{{Key: key, Value: value, Expected: expected}})
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.entries[key].Version, nil
}

// Delete removes the key conditionally.
func (t *Table) Delete(key string, expected int64) error {
	return t.Txn([]TxnOp{{Key: key, Delete: true, Expected: expected}})
}

// Txn atomically applies all operations, or none: if any expected version
// fails at apply time the whole transaction aborts with
// ErrVersionMismatch. This is the multi-key conditional update the storage
// writer relies on for chunk metadata (§4.3).
func (t *Table) Txn(ops []TxnOp) error {
	if len(ops) == 0 {
		return ErrEmptyTxn
	}
	id := t.instance<<40 | t.idCounter.Add(1)
	rec, err := json.Marshal(txnRecord{ID: id, Ops: ops})
	if err != nil {
		return err
	}
	// Update calls gen after every refetch — a lost conditional-append race
	// included — so gen decides from the refetched state alone.
	err = t.sync.Update(func() ([]byte, error) {
		t.mu.Lock()
		defer t.mu.Unlock()
		if _, applied := t.outcome[id]; applied {
			// An earlier attempt landed although its caller saw a failure (a
			// lost ack: the router's retry then trips the offset guard and the
			// synchronizer refetches our own record). Just catching up.
			return nil, nil
		}
		// Fast-fail conditions that already cannot hold; the authoritative
		// check still happens at apply time.
		for _, op := range ops {
			cur, exists := t.entries[op.Key]
			if op.Expected == NotExists && exists ||
				op.Expected >= 0 && (!exists || cur.Version != op.Expected) {
				return nil, fmt.Errorf("%w: key %q", ErrVersionMismatch, op.Key)
			}
		}
		return rec, nil
	})
	if err != nil {
		return err
	}
	t.mu.Lock()
	committed, known := t.outcome[id]
	t.mu.Unlock()
	if !known {
		return fmt.Errorf("kvtable: transaction %d outcome unknown (outcome window exceeded)", id)
	}
	if !committed {
		return fmt.Errorf("%w: transaction aborted at apply", ErrVersionMismatch)
	}
	return nil
}

// Keys returns the table's keys, sorted (refreshing first).
func (t *Table) Keys() ([]string, error) {
	if err := t.Refresh(); err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.entries))
	for k := range t.entries {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// Len returns the number of keys (refreshing first).
func (t *Table) Len() (int, error) {
	if err := t.Refresh(); err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries), nil
}
