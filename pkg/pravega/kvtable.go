package pravega

import (
	"context"
	"fmt"
	"sync/atomic"

	"github.com/pravega-go/pravega/internal/kvtable"
)

// KeyValueTable is a durable, replicated key-value table backed by a
// Pravega segment, with per-key versions, conditional updates and multi-key
// transactions — the same facility Pravega uses internally for stream and
// chunk metadata (§2.2, §4.3). Multiple clients may open the same table;
// optimistic concurrency resolves conflicts.
type KeyValueTable struct {
	table *kvtable.Table
}

// Version sentinels re-exported for conditional operations.
const (
	// AnyVersion makes an operation unconditional.
	AnyVersion = kvtable.AnyVersion
	// NotExists requires the key to be absent.
	NotExists = kvtable.NotExists
)

// TableEntry is one key's state.
type TableEntry = kvtable.Entry

// TableOp is one operation of a table transaction.
type TableOp = kvtable.TxnOp

// NewKeyValueTable opens (creating if needed) the named table in a scope.
func (s *System) NewKeyValueTable(scope, name string) (*KeyValueTable, error) {
	seg := fmt.Sprintf("%s/_kvtable-%s/0.#epoch.0", scope, name)
	conn := s.newData()
	if err := conn.CreateSegment(seg); err != nil && !isExists(err) {
		return nil, err
	}
	backing := &segmentBacking{conn: conn, segment: seg}
	// The instance id only needs to differ between concurrently open
	// handles; the connection pointer value's low bits suffice.
	return &KeyValueTable{table: kvtable.New(backing, instanceID())}, nil
}

var kvInstanceCounter atomic.Int64

func instanceID() int64 { return kvInstanceCounter.Add(1) }

// Get returns the key's entry, or ok=false when absent. Like every table
// method it honors ctx (DESIGN.md §"Context convention"): cancelling
// abandons the wait; the read itself is side-effect free.
func (t *KeyValueTable) Get(ctx context.Context, key string) (TableEntry, bool, error) {
	type hit struct {
		e  TableEntry
		ok bool
	}
	h, err := runCtxVal(ctx, func() (hit, error) {
		e, ok, err := t.table.Get(key)
		return hit{e, ok}, err
	})
	return h.e, h.ok, err
}

// Put writes key=value conditionally on expected (AnyVersion, NotExists or
// an exact version) and returns the new version. A cancelled call may still
// have applied — re-read to learn the outcome.
func (t *KeyValueTable) Put(ctx context.Context, key string, value []byte, expected int64) (int64, error) {
	return runCtxVal(ctx, func() (int64, error) { return t.table.Put(key, value, expected) })
}

// Delete removes the key conditionally; like Put, a cancelled call may
// still have applied.
func (t *KeyValueTable) Delete(ctx context.Context, key string, expected int64) error {
	return runCtx(ctx, func() error { return t.table.Delete(key, expected) })
}

// Txn applies all operations atomically, or none (§4.3: "transactions to
// update multiple keys at once"), even if the wait is abandoned.
func (t *KeyValueTable) Txn(ctx context.Context, ops []TableOp) error {
	return runCtx(ctx, func() error { return t.table.Txn(ops) })
}

// Keys lists the table's keys, sorted.
func (t *KeyValueTable) Keys(ctx context.Context) ([]string, error) {
	return runCtxVal(ctx, func() ([]string, error) { return t.table.Keys() })
}

// Len returns the number of keys.
func (t *KeyValueTable) Len(ctx context.Context) (int, error) {
	return runCtxVal(ctx, func() (int, error) { return t.table.Len() })
}
