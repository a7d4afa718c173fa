// Package bookkeeper implements the replicated write-ahead-log substrate
// Pravega delegates to Apache BookKeeper in the paper (§2.2, §4.1): bookies
// (storage servers) that journal appends with group commit, ledgers
// replicated over an ensemble with write/ack quorums, fencing for exclusive
// writer access (§4.4), and ledger deletion for WAL truncation (§4.3).
//
// The implementation is faithful to the surface Pravega uses; the journal
// drive is a sim.Disk so the performance characteristics (group commit
// amortizing fsyncs, sequential journal writes) match the paper's testbed.
package bookkeeper

import (
	"errors"
	"fmt"
	"sync"

	"github.com/pravega-go/pravega/internal/sim"
)

// Errors returned by bookie and ledger operations.
var (
	ErrFenced       = errors.New("bookkeeper: ledger is fenced")
	ErrNoLedger     = errors.New("bookkeeper: no such ledger")
	ErrNoEntry      = errors.New("bookkeeper: no such entry")
	ErrLedgerClosed = errors.New("bookkeeper: ledger closed")
	ErrNotEnough    = errors.New("bookkeeper: not enough bookies responded")
	ErrBookieDown   = errors.New("bookkeeper: bookie is down")
)

// Node is the bookie surface the ledger client depends on. The concrete
// *Bookie implements it; fault-injection wrappers (internal/faultinject)
// decorate one to fail appends, drop acknowledgements or reject fencing
// while keeping the client's quorum logic untouched.
type Node interface {
	ID() string
	IsDown() bool
	AddEntry(ledgerID, entryID int64, data []byte, cb func(error))
	ReadEntry(ledgerID, entryID int64) ([]byte, error)
	Fence(ledgerID int64) (lastEntry int64, err error)
	DeleteLedger(ledgerID int64) error
}

var _ Node = (*Bookie)(nil)

// Host is one transport to several bookies, such as the connection to the
// process that hosts them. A Node reached through a Host implements Hosted,
// and the ledger sends each entry to the Host once, naming every bookie of
// the write set behind it, instead of once per bookie.
type Host interface {
	// AddEntries is AddEntry on each named bookie of the entry that is the
	// concatenation of parts: cb runs once per name, in order, with that
	// bookie's outcome. The parts are immutable; the Host sends them as
	// they are, without joining them.
	AddEntries(bookies []string, ledgerID, entryID int64, parts [][]byte, cb func(error))
}

// Hosted is a Node whose transport is a Host shared with other bookies.
type Hosted interface{ Host() Host }

// BookieConfig parameterizes one storage server.
type BookieConfig struct {
	// ID names the bookie.
	ID string
	// Journal is the drive file the bookie journals to. Nil disables the
	// performance model (unit tests).
	Journal *sim.DiskFile
	// NoSync makes journal writes hit the page cache only — the "no flush"
	// durability experiment of §5.2.
	NoSync bool
	// DiscardData keeps only entry sizes (benchmark mode); reads return
	// zero-filled buffers of the right length.
	DiscardData bool
}

// Bookie is a storage server. Adds are journaled with group commit: all
// adds that arrive while a journal write is in flight are aggregated into
// the next write — the third level of batching in the paper's write path
// (§4.1).
type Bookie struct {
	cfg BookieConfig

	mu      sync.Mutex
	ledgers map[int64]*bookieLedger
	down    bool

	addCh chan *addReq
	stop  chan struct{}
	wg    sync.WaitGroup
}

type bookieLedger struct {
	fenced  bool
	entries map[int64]entry
	last    int64 // highest entry id stored
}

type entry struct {
	size int
	data []byte // nil when DiscardData
}

type addReq struct {
	ledgerID int64
	entryID  int64
	data     []byte
	size     int
	cb       func(error)
}

// maxGroupCommit bounds how many adds one journal write may carry.
const maxGroupCommit = 4096

// NewBookie starts a bookie.
func NewBookie(cfg BookieConfig) *Bookie {
	b := &Bookie{
		cfg:     cfg,
		ledgers: make(map[int64]*bookieLedger),
		addCh:   make(chan *addReq, 16384),
		stop:    make(chan struct{}),
	}
	b.wg.Add(1)
	go b.commitLoop()
	return b
}

// ID returns the bookie's identifier.
func (b *Bookie) ID() string { return b.cfg.ID }

// Close stops the commit loop. Pending adds fail with ErrBookieDown.
func (b *Bookie) Close() {
	b.mu.Lock()
	if b.down {
		b.mu.Unlock()
		return
	}
	b.down = true
	b.mu.Unlock()
	close(b.stop)
	b.wg.Wait()
}

// IsDown reports whether the bookie has been stopped.
func (b *Bookie) IsDown() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.down
}

// AddEntry asynchronously stores an entry; cb fires when the entry is
// durable (or immediately on rejection). Entry ids within a ledger must be
// written by a single writer (BookKeeper's contract); re-adding an existing
// id is idempotent. The bookie takes ownership of data: the caller must not
// mutate it afterwards (the ledger layer hands every local replica the same
// immutable copy).
func (b *Bookie) AddEntry(ledgerID, entryID int64, data []byte, cb func(error)) {
	b.mu.Lock()
	if b.down {
		b.mu.Unlock()
		cb(ErrBookieDown)
		return
	}
	l := b.ledgers[ledgerID]
	if l == nil {
		l = &bookieLedger{entries: make(map[int64]entry), last: -1}
		b.ledgers[ledgerID] = l
	}
	if l.fenced {
		b.mu.Unlock()
		cb(ErrFenced)
		return
	}
	b.mu.Unlock()

	req := &addReq{ledgerID: ledgerID, entryID: entryID, size: len(data), cb: cb}
	if !b.cfg.DiscardData {
		req.data = data
	}
	select {
	case b.addCh <- req:
	case <-b.stop:
		cb(ErrBookieDown)
	}
}

// commitLoop aggregates queued adds into single journal writes (group
// commit), then acknowledges them.
func (b *Bookie) commitLoop() {
	defer b.wg.Done()
	for {
		var batch []*addReq
		select {
		case req := <-b.addCh:
			batch = append(batch, req)
		case <-b.stop:
			b.failPending()
			return
		}
	drain:
		for len(batch) < maxGroupCommit {
			select {
			case req := <-b.addCh:
				batch = append(batch, req)
			default:
				break drain
			}
		}
		b.commit(batch)
	}
}

func (b *Bookie) failPending() {
	for {
		select {
		case req := <-b.addCh:
			req.cb(ErrBookieDown)
		default:
			return
		}
	}
}

const entryJournalOverhead = 32 // per-entry journal header bytes

func (b *Bookie) commit(batch []*addReq) {
	total := 0
	for _, r := range batch {
		total += r.size + entryJournalOverhead
	}
	if b.cfg.Journal != nil {
		if b.cfg.NoSync {
			b.cfg.Journal.WriteAsync(total)
		} else {
			b.cfg.Journal.WriteSync(total)
		}
	}
	b.mu.Lock()
	for _, r := range batch {
		l := b.ledgers[r.ledgerID]
		if l == nil || l.fenced {
			b.mu.Unlock()
			r.cb(ErrFenced)
			b.mu.Lock()
			continue
		}
		l.entries[r.entryID] = entry{size: r.size, data: r.data}
		if r.entryID > l.last {
			l.last = r.entryID
		}
		b.mu.Unlock()
		r.cb(nil)
		b.mu.Lock()
	}
	b.mu.Unlock()
}

// ReadEntry returns a stored entry's payload.
func (b *Bookie) ReadEntry(ledgerID, entryID int64) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.down {
		return nil, ErrBookieDown
	}
	l := b.ledgers[ledgerID]
	if l == nil {
		return nil, ErrNoLedger
	}
	e, ok := l.entries[entryID]
	if !ok {
		return nil, ErrNoEntry
	}
	if e.data == nil && b.cfg.DiscardData {
		return make([]byte, e.size), nil
	}
	return append([]byte(nil), e.data...), nil
}

// Fence marks the ledger read-only on this bookie; in-flight and future
// adds are rejected. Returns the highest entry id stored so the recovering
// writer can establish the ledger's final length (§4.4).
func (b *Bookie) Fence(ledgerID int64) (lastEntry int64, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.down {
		return -1, ErrBookieDown
	}
	l := b.ledgers[ledgerID]
	if l == nil {
		l = &bookieLedger{entries: make(map[int64]entry), last: -1}
		b.ledgers[ledgerID] = l
	}
	l.fenced = true
	return l.last, nil
}

// DeleteLedger discards the ledger's entries (WAL truncation, §4.3).
func (b *Bookie) DeleteLedger(ledgerID int64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.down {
		return ErrBookieDown
	}
	delete(b.ledgers, ledgerID)
	return nil
}

func (b *Bookie) String() string { return fmt.Sprintf("bookie(%s)", b.cfg.ID) }
