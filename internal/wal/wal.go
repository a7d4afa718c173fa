// Package wal implements the durable-log abstraction Pravega builds on top
// of BookKeeper ledgers (§4.1): a named, append-only log made of a sequence
// of ledgers with rollover, sequential replay for recovery, truncation by
// ledger deletion (§4.3), and exclusive-writer semantics via ledger fencing
// plus compare-and-set metadata updates (§4.4). Each segment container owns
// exactly one such log.
package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/pravega-go/pravega/internal/bookkeeper"
	"github.com/pravega-go/pravega/internal/cluster"
)

// Errors returned by log operations.
var (
	// ErrFenced indicates another instance has taken over this log; the
	// holder must shut down (§4.4).
	ErrFenced = errors.New("wal: log fenced by another writer")
	// ErrClosed indicates the log handle was closed locally.
	ErrClosed = errors.New("wal: log closed")
)

// Address orders entries across the whole log: ledgers are ordered by their
// position in the log's ledger sequence, entries within a ledger by entry id.
type Address struct {
	LedgerSeq int64 // index of the ledger in the log's sequence
	LedgerID  int64
	Entry     int64
}

// Less orders addresses.
func (a Address) Less(b Address) bool {
	if a.LedgerSeq != b.LedgerSeq {
		return a.LedgerSeq < b.LedgerSeq
	}
	return a.Entry < b.Entry
}

func (a Address) String() string {
	return fmt.Sprintf("wal@%d:%d(L%d)", a.LedgerSeq, a.Entry, a.LedgerID)
}

type logMetadata struct {
	Name    string  `json:"name"`
	Epoch   int64   `json:"epoch"`
	Ledgers []int64 `json:"ledgers"` // ledger ids in sequence order
	// TruncateSeq is the first ledger sequence still retained.
	TruncateSeq int64 `json:"truncateSeq"`
}

// Config parameterizes a durable log.
type Config struct {
	// Name identifies the log (one per segment container).
	Name string
	// Client is the BookKeeper client.
	Client *bookkeeper.Client
	// Meta stores log metadata.
	Meta cluster.Coord
	// Replication is passed to each ledger.
	Replication bookkeeper.ReplicationConfig
	// RolloverBytes starts a new ledger once the current one holds this
	// many bytes. Zero means a 64 MiB default.
	RolloverBytes int64
}

// Log is an open durable log owned by exactly one writer.
type Log struct {
	cfg     Config
	path    string
	version int64 // metadata node version for CAS fencing

	mu       sync.Mutex
	md       logMetadata
	current  *bookkeeper.LedgerHandle
	written  int64 // bytes in current ledger
	closed   bool
	fenced   bool
	inflight sync.WaitGroup
}

// metaRoot prefixes the logs' metadata paths.
const metaRoot = "/pravega/wal"

// Open opens (or creates) the named log, taking exclusive ownership: any
// previous writer's open ledger is fenced and sealed, and its future
// metadata updates will fail. Returns the log positioned for appending.
func Open(cfg Config) (*Log, error) {
	if cfg.RolloverBytes <= 0 {
		cfg.RolloverBytes = 64 << 20
	}
	if err := cfg.Replication.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Meta.CreateAll(metaRoot, nil); err != nil && !errors.Is(err, cluster.ErrNodeExists) {
		return nil, err
	}
	l := &Log{cfg: cfg, path: metaRoot + "/" + cfg.Name}

	data, stat, err := cfg.Meta.Get(l.path)
	switch {
	case errors.Is(err, cluster.ErrNoNode):
		l.md = logMetadata{Name: cfg.Name, Epoch: 1}
		raw, merr := json.Marshal(l.md)
		if merr != nil {
			return nil, merr
		}
		if cerr := cfg.Meta.Create(l.path, raw); cerr != nil {
			return nil, cerr
		}
		_, stat, err = cfg.Meta.Get(l.path)
		if err != nil {
			return nil, err
		}
		l.version = stat.Version
	case err != nil:
		return nil, err
	default:
		if uerr := json.Unmarshal(data, &l.md); uerr != nil {
			return nil, uerr
		}
		l.md.Epoch++
		l.version = stat.Version
		// Fence & seal the previous writer's retained ledgers so it cannot
		// append. Ledgers below TruncateSeq were released by Truncate (the
		// metadata CAS lands before deletion), so they must be skipped:
		// recovering them would fail with "no such ledger" and wedge every
		// restart after the first WAL truncation.
		for seq, lid := range l.md.Ledgers {
			if int64(seq) < l.md.TruncateSeq {
				continue
			}
			if _, rerr := cfg.Client.OpenLedgerRecovery(lid); rerr != nil {
				return nil, fmt.Errorf("wal: recovering ledger %d: %w", lid, rerr)
			}
		}
		if werr := l.writeMetadataLocked(); werr != nil {
			return nil, werr
		}
	}
	if err := l.rolloverLocked(); err != nil {
		return nil, err
	}
	return l, nil
}

// writeMetadataLocked persists metadata with CAS; a version conflict means
// another instance opened the log and this writer is fenced.
func (l *Log) writeMetadataLocked() error {
	raw, err := json.Marshal(l.md)
	if err != nil {
		return err
	}
	stat, err := l.cfg.Meta.Set(l.path, raw, l.version)
	if err != nil {
		if errors.Is(err, cluster.ErrBadVersion) {
			l.fenced = true
			return ErrFenced
		}
		return err
	}
	l.version = stat.Version
	return nil
}

// rolloverLocked seals the current ledger (if any) and opens a fresh one.
func (l *Log) rolloverLocked() error {
	if l.current != nil {
		if err := l.current.Close(); err != nil {
			return err
		}
	}
	h, err := l.cfg.Client.CreateLedger(l.cfg.Replication)
	if err != nil {
		return err
	}
	l.md.Ledgers = append(l.md.Ledgers, h.ID())
	if err := l.writeMetadataLocked(); err != nil {
		return err
	}
	if l.current != nil {
		mRollovers.Inc()
	}
	l.current = h
	l.written = 0
	return nil
}

// Epoch returns the writer epoch of this log instance.
func (l *Log) Epoch() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.md.Epoch
}

// AppendAsync durably appends data, invoking cb with the entry's address
// once replicated to the ack quorum. It is AppendPartsAsync with one part.
func (l *Log) AppendAsync(data []byte, cb func(Address, error)) {
	l.AppendPartsAsync([][]byte{data}, cb)
}

// AppendPartsAsync durably appends the concatenation of parts as one entry,
// invoking cb with its address once replicated to the ack quorum. Appends
// are pipelined; callbacks may fire out of submission order, but addresses
// respect submission order.
//
// The log takes ownership of the parts: they go to the ledger as they are
// (bookkeeper.LedgerHandle.AppendPartsAsync), so the caller must not touch
// them afterwards.
func (l *Log) AppendPartsAsync(parts [][]byte, cb func(Address, error)) {
	l.mu.Lock()
	if l.closed || l.fenced {
		err := ErrClosed
		if l.fenced {
			err = ErrFenced
		}
		l.mu.Unlock()
		cb(Address{}, err)
		return
	}
	if l.written >= l.cfg.RolloverBytes {
		if err := l.rolloverLocked(); err != nil {
			l.mu.Unlock()
			cb(Address{}, err)
			return
		}
	}
	h := l.current
	seq := int64(len(l.md.Ledgers) - 1)
	for _, p := range parts {
		l.written += int64(len(p))
	}
	l.inflight.Add(1)
	l.mu.Unlock()

	mAppends.Inc()
	start := time.Now()
	h.AppendPartsAsync(parts, func(entry int64, err error) {
		defer l.inflight.Done()
		mAppendUs.RecordSince(start)
		if err != nil {
			if errors.Is(err, bookkeeper.ErrFenced) {
				l.mu.Lock()
				l.fenced = true
				l.mu.Unlock()
				err = ErrFenced
			}
			cb(Address{}, err)
			return
		}
		cb(Address{LedgerSeq: seq, LedgerID: h.ID(), Entry: entry}, nil)
	})
}

// Entry is one replayed record.
type Entry struct {
	Addr Address
	Data []byte
}

// ReadAll replays every retained entry in order. It is used during segment
// container recovery (§4.4). The log must be quiescent (fresh Open) for a
// complete view; concurrent appends may or may not be observed.
func (l *Log) ReadAll() ([]Entry, error) {
	l.mu.Lock()
	ledgers := append([]int64(nil), l.md.Ledgers...)
	first := l.md.TruncateSeq
	l.mu.Unlock()

	var out []Entry
	for seq := first; seq < int64(len(ledgers)); seq++ {
		lid := ledgers[seq]
		md, err := l.cfg.Client.Metadata(lid)
		if err != nil {
			return nil, err
		}
		last := md.LastEntry
		if md.State == bookkeeper.LedgerOpen {
			l.mu.Lock()
			cur := l.current
			l.mu.Unlock()
			if cur != nil && cur.ID() == lid {
				last = cur.LastAddConfirmed()
			}
		}
		for e := int64(0); e <= last; e++ {
			data, err := l.cfg.Client.ReadEntry(md, e)
			if err != nil {
				return nil, fmt.Errorf("wal: reading %d:%d: %w", lid, e, err)
			}
			out = append(out, Entry{Addr: Address{LedgerSeq: seq, LedgerID: lid, Entry: e}, Data: data})
		}
	}
	return out, nil
}

// Truncate releases all ledgers that lie entirely before upTo: their data
// has reached long-term storage and is no longer needed for recovery
// (§4.3). The ledger containing upTo is retained. Metadata is persisted
// under the log lock, but the freed ledgers are deleted after releasing it:
// ledger deletion can be slow and must not stall concurrent appends.
func (l *Log) Truncate(upTo Address) error {
	l.mu.Lock()
	if l.fenced {
		l.mu.Unlock()
		return ErrFenced
	}
	var freed []int64
	for l.md.TruncateSeq < upTo.LedgerSeq && l.md.TruncateSeq < int64(len(l.md.Ledgers)-1) {
		freed = append(freed, l.md.Ledgers[l.md.TruncateSeq])
		l.md.TruncateSeq++
	}
	if len(freed) == 0 {
		l.mu.Unlock()
		return nil
	}
	err := l.writeMetadataLocked()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	mTruncatedLedgers.Add(int64(len(freed)))
	for _, lid := range freed {
		if err := l.cfg.Client.DeleteLedger(lid); err != nil {
			return err
		}
	}
	return nil
}

// TruncatedBefore returns the first ledger sequence still retained: every
// entry with a lower LedgerSeq has been released by Truncate. Recovery
// validation uses it to assert that truncation never outran tiering.
func (l *Log) TruncatedBefore() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.md.TruncateSeq
}

// RetainedLedgers reports how many ledgers the log currently holds (metrics
// and tests).
func (l *Log) RetainedLedgers() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.md.Ledgers) - int(l.md.TruncateSeq)
}

// Close seals the current ledger and releases the handle. It waits for
// in-flight appends to settle.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	cur := l.current
	l.mu.Unlock()
	l.inflight.Wait()
	if cur != nil {
		if err := cur.Close(); err != nil && !errors.Is(err, ErrFenced) {
			return err
		}
	}
	return nil
}
