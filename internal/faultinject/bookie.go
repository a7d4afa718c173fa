package faultinject

import (
	"sync"
	"time"

	"github.com/pravega-go/pravega/internal/bookkeeper"
)

// BookieOp selects which Node method a BookieRule applies to.
type BookieOp string

// Bookie operations addressable by rules.
const (
	BookieAdd   BookieOp = "add"
	BookieRead  BookieOp = "read"
	BookieFence BookieOp = "fence"
)

// BookieRule describes one injected bookie fault, with the same Nth/Count
// triggering semantics as LTSRule. For BookieAdd, exactly one of:
//
//   - Err: the add is rejected immediately with this error (defaults to
//     bookkeeper.ErrBookieDown), without reaching the bookie. One failed
//     replica within quorum tolerance is absorbed by the ledger's ack
//     quorum; beyond it, the WAL append fails and the container goes down.
//   - DropAck: the add reaches the bookie and is stored durably, but the
//     acknowledgement never fires — the entry exists without the writer
//     knowing, exactly what a network partition after delivery produces.
//     Keep dropped acks within quorum tolerance (one bookie of a 3/3/2
//     ensemble) or the append hangs by design, as it would in BookKeeper.
//
// For BookieRead and BookieFence, Err is returned (read faults exercise
// recovery's replica fallback; fence faults starve OpenLedgerRecovery).
type BookieRule struct {
	Op      BookieOp
	Nth     int
	Count   int
	Err     error
	DropAck bool
	Delay   time.Duration
}

func (r *BookieRule) err() error {
	if r.Err != nil {
		return r.Err
	}
	return bookkeeper.ErrBookieDown
}

type bookieRuleState struct {
	rule    BookieRule
	matched int
	fired   int
}

func (s *bookieRuleState) active() bool {
	first := s.rule.Nth
	if first <= 0 {
		first = 1
	}
	if s.matched < first {
		return false
	}
	limit := s.rule.Count
	if limit == 0 {
		limit = 1
	}
	if limit > 0 && s.fired >= limit {
		return false
	}
	s.fired++
	return true
}

// FaultyBookie decorates a bookkeeper.Node with rule-driven fault
// injection. It is registered with the ledger client in place of the real
// bookie (see newCrashRig); the client's quorum logic is untouched, so
// injected faults exercise the real replication paths.
type FaultyBookie struct {
	inner bookkeeper.Node

	mu       sync.Mutex
	rules    []*bookieRuleState
	injected int64
}

var _ bookkeeper.Node = (*FaultyBookie)(nil)

// NewFaultyBookie wraps inner with no rules armed.
func NewFaultyBookie(inner bookkeeper.Node) *FaultyBookie {
	return &FaultyBookie{inner: inner}
}

// AddRule arms a fault rule.
func (f *FaultyBookie) AddRule(r BookieRule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = append(f.rules, &bookieRuleState{rule: r})
}

// Reset disarms every rule.
func (f *FaultyBookie) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = nil
}

// Injected reports how many faults have been injected.
func (f *FaultyBookie) Injected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

func (f *FaultyBookie) match(op BookieOp) *BookieRule {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, s := range f.rules {
		if s.rule.Op != op {
			continue
		}
		s.matched++
		if s.active() {
			f.injected++
			r := s.rule
			return &r
		}
	}
	return nil
}

// ID implements bookkeeper.Node.
func (f *FaultyBookie) ID() string { return f.inner.ID() }

// IsDown implements bookkeeper.Node.
func (f *FaultyBookie) IsDown() bool { return f.inner.IsDown() }

// AddEntry implements bookkeeper.Node.
func (f *FaultyBookie) AddEntry(ledgerID, entryID int64, data []byte, cb func(error)) {
	if r := f.match(BookieAdd); r != nil {
		sleep(r.Delay)
		mBookieFaults.Inc()
		if r.DropAck {
			// Deliver durably, swallow the acknowledgement.
			f.inner.AddEntry(ledgerID, entryID, data, func(error) {})
			return
		}
		cb(r.err())
		return
	}
	f.inner.AddEntry(ledgerID, entryID, data, cb)
}

// ReadEntry implements bookkeeper.Node.
func (f *FaultyBookie) ReadEntry(ledgerID, entryID int64) ([]byte, error) {
	if r := f.match(BookieRead); r != nil {
		sleep(r.Delay)
		mBookieFaults.Inc()
		return nil, r.err()
	}
	return f.inner.ReadEntry(ledgerID, entryID)
}

// Fence implements bookkeeper.Node.
func (f *FaultyBookie) Fence(ledgerID int64) (int64, error) {
	if r := f.match(BookieFence); r != nil {
		sleep(r.Delay)
		mBookieFaults.Inc()
		return -1, r.err()
	}
	return f.inner.Fence(ledgerID)
}

// DeleteLedger implements bookkeeper.Node.
func (f *FaultyBookie) DeleteLedger(ledgerID int64) error {
	return f.inner.DeleteLedger(ledgerID)
}
