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
// exactly as the paper's BookKeeper deployment would. Its Host is the
// RemoteStore, so the ledger sends an entry over the connection once for
// all the coord's bookies in its write set.
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

// Host returns the connection to the coord process.
func (b *RemoteBookie) Host() bookkeeper.Host { return b.rs }

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
// made it durable (group commit included). It is AddEntries naming one.
func (b *RemoteBookie) AddEntry(ledgerID, entryID int64, data []byte, cb func(error)) {
	b.rs.AddEntries([]string{b.id}, ledgerID, entryID, [][]byte{data}, cb)
}

// AddEntries sends one MsgBookieAdd naming bookies the coord process hosts
// and hands cb each one's outcome, in order, from the one reply. The entry
// is the concatenation of parts, which the message carries straight from
// the caller's slices. A lost transport fails them all alike, with
// bookkeeper.ErrBookieDown.
func (rs *RemoteStore) AddEntries(bookies []string, ledgerID, entryID int64, parts [][]byte, cb func(error)) {
	failAll := func(err error) {
		for range bookies {
			cb(err)
		}
	}
	conn := rs.sc.current()
	if conn == nil {
		go failAll(fmt.Errorf("wire: bookies %v disconnected: %w", bookies, bookkeeper.ErrBookieDown))
		return
	}
	req := BookieReq{Bookies: bookies, Ledger: ledgerID, Entry: entryID, parts: parts}
	err := conn.CallAsyncFunc(MsgBookieAdd, &req, func(rep Reply) {
		err := ReplyError(rep)
		if placement.IsDisconnect(err) {
			rs.sc.fault(conn)
		}
		var outs bookieOutcomes
		if err == nil {
			err = decodeBody(rep.Data, &outs)
		}
		if err == nil && len(outs) != len(bookies) {
			err = fmt.Errorf("wire: %d bookie outcomes for %d bookies", len(outs), len(bookies))
		}
		if err != nil {
			failAll(bookieDown(err))
			return
		}
		for _, err := range outs {
			cb(err)
		}
	})
	if err != nil {
		rs.sc.fault(conn)
		go failAll(fmt.Errorf("wire: bookies %v: %v: %w", bookies, err, bookkeeper.ErrBookieDown))
	}
}

func (b *RemoteBookie) ReadEntry(ledgerID, entryID int64) ([]byte, error) {
	rep, err := b.rs.sc.call(MsgBookieRead, BookieReq{Bookies: []string{b.id}, Ledger: ledgerID, Entry: entryID})
	if err != nil {
		return nil, bookieDown(err)
	}
	return rep.Data, nil
}

func (b *RemoteBookie) Fence(ledgerID int64) (int64, error) {
	rep, err := b.rs.sc.call(MsgBookieFence, BookieReq{Bookies: []string{b.id}, Ledger: ledgerID})
	if err != nil {
		return -1, bookieDown(err)
	}
	return rep.Offset, nil
}

func (b *RemoteBookie) DeleteLedger(ledgerID int64) error {
	_, err := b.rs.sc.call(MsgBookieDeleteLedger, BookieReq{Bookies: []string{b.id}, Ledger: ledgerID})
	return bookieDown(err)
}
