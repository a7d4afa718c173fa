package wire

import (
	"fmt"

	"github.com/pravega-go/pravega/internal/bookkeeper"
	"github.com/pravega-go/pravega/internal/placement"
)

// RemoteBookie is a WAL bookie served by the coord process, reached over
// the coordination connection. A store process's WAL writes land in the
// coord process's journal, which is what makes them durable across a
// SIGKILL of the store: the new owner re-reads the ledger from the bookies,
// exactly as the paper's BookKeeper deployment would.
//
// Transport loss maps to bookkeeper.ErrBookieDown — indistinguishable from
// a down bookie to the ledger layer, which already handles that by fencing
// and re-reading on recovery.
type RemoteBookie struct {
	id string
	rs *RemoteStore
}

var _ bookkeeper.Node = (*RemoteBookie)(nil)

// NewRemoteBookie wraps bookie id, sharing the RemoteStore's connection
// (requests pipeline; replies are matched out of order).
func NewRemoteBookie(id string, rs *RemoteStore) *RemoteBookie {
	return &RemoteBookie{id: id, rs: rs}
}

func (b *RemoteBookie) ID() string { return b.id }

// IsDown reports transport liveness: while the connection is re-dialing,
// the bookie is as good as down for ensemble selection.
func (b *RemoteBookie) IsDown() bool { return b.rs.sc.current() == nil }

func bookieDown(err error) error {
	if err == nil {
		return nil
	}
	if placement.IsDisconnect(err) {
		return fmt.Errorf("wire: bookie transport: %v: %w", err, bookkeeper.ErrBookieDown)
	}
	return err
}

// AddEntry pipelines a journal write; cb runs when the coord process has
// made it durable (group commit included).
func (b *RemoteBookie) AddEntry(ledgerID, entryID int64, data []byte, cb func(error)) {
	conn := b.rs.sc.current()
	if conn == nil {
		go cb(fmt.Errorf("wire: bookie %s disconnected: %w", b.id, bookkeeper.ErrBookieDown))
		return
	}
	req := BookieReq{Bookie: b.id, Ledger: ledgerID, Entry: entryID, Data: data}
	err := conn.CallAsyncFunc(MsgBookieAdd, &req, func(rep Reply) {
		err := ReplyError(rep)
		if placement.IsDisconnect(err) {
			b.rs.sc.fault(conn)
		}
		cb(bookieDown(err))
	})
	if err != nil {
		b.rs.sc.fault(conn)
		go cb(fmt.Errorf("wire: bookie %s: %v: %w", b.id, err, bookkeeper.ErrBookieDown))
	}
}

func (b *RemoteBookie) ReadEntry(ledgerID, entryID int64) ([]byte, error) {
	rep, err := b.rs.sc.call(MsgBookieRead, BookieReq{Bookie: b.id, Ledger: ledgerID, Entry: entryID})
	if err != nil {
		return nil, bookieDown(err)
	}
	return rep.Data, nil
}

func (b *RemoteBookie) Fence(ledgerID int64) (int64, error) {
	rep, err := b.rs.sc.call(MsgBookieFence, BookieReq{Bookie: b.id, Ledger: ledgerID})
	if err != nil {
		return -1, bookieDown(err)
	}
	return rep.Offset, nil
}

func (b *RemoteBookie) DeleteLedger(ledgerID int64) error {
	_, err := b.rs.sc.call(MsgBookieDeleteLedger, BookieReq{Bookie: b.id, Ledger: ledgerID})
	return bookieDown(err)
}
