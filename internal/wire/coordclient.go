package wire

import (
	"fmt"
	"sync"
	"time"

	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/obs"
	"github.com/pravega-go/pravega/internal/placement"
)

// Process-wide series for remote coordination clients.
var (
	mcCoordWatchRearm = obs.Default().Counter("pravega_wire_coord_watch_rearms_total",
		"Watch long polls re-armed after an idle timeout or reconnect")
	mcSessionRenews = obs.Default().Counter("pravega_wire_coord_session_renews_total",
		"Successful remote session renewals")
	mcSessionFenced = obs.Default().Counter("pravega_wire_coord_session_fenced_total",
		"Remote sessions self-fenced after the server was unreachable past the TTL")
)

// RemoteStore is the coordination store served over the wire: a
// cluster.Coord whose every operation is a request to the coord process.
// The connection reconnects in the background with capped exponential
// backoff, and — following ZooKeeper's rule — a dropped connection is NOT a
// dropped session: sessions opened through OpenSession survive any outage
// shorter than their TTL, because the server tracks them by id, not by
// connection.
type RemoteStore struct {
	sc *storeConn
}

var _ cluster.Coord = (*RemoteStore)(nil)

// DialCoord connects to the coordination process at addr over TCP, trying
// once.
func DialCoord(addr string, cfg ClientConfig) (*RemoteStore, error) {
	return DialCoordOver(DialTCP, addr, cfg, 0)
}

// DialCoordRetry is DialCoordOver on TCP.
func DialCoordRetry(addr string, cfg ClientConfig, timeout time.Duration) (*RemoteStore, error) {
	return DialCoordOver(DialTCP, addr, cfg, timeout)
}

// DialCoordOver keeps dialing addr through dial until the coord answers or
// the timeout lapses — a store racing its coord at boot retries instead of
// dying.
func DialCoordOver(dial Dialer, addr string, cfg ClientConfig, timeout time.Duration) (*RemoteStore, error) {
	deadline := time.Now().Add(timeout)
	backoff := minBackoff
	for {
		conn, err := Dial(dial, addr)
		if err == nil {
			return &RemoteStore{sc: newStoreConn(newClient(addr, cfg, dial), conn, addr)}, nil
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("wire: coord %s unreachable for %v: %w", addr, timeout, err)
		}
		time.Sleep(backoff)
		backoff = nextBackoff(backoff)
	}
}

// Close tears the connection down. Remote sessions are left to their TTL
// (call their Close first for a clean release).
func (rs *RemoteStore) Close() { rs.sc.Close() }

// record performs a call whose reply carries a CoordRep.
func (rs *RemoteStore) record(t MessageType, req CoordReq) (CoordRep, error) {
	rep, err := rs.sc.call(t, req)
	return decode[CoordRep](rep, err, "coord reply")
}

func statOf(cr CoordRep) cluster.Stat {
	return cluster.Stat{
		Version: cr.Version, CVersion: cr.CVersion,
		Ephemeral: cr.Ephemeral, Owner: cr.Owner,
	}
}

func (rs *RemoteStore) Create(path string, data []byte) error {
	_, err := rs.sc.call(MsgCoordCreate, CoordReq{Path: path, Data: data})
	return err
}

func (rs *RemoteStore) CreateAll(path string, data []byte) error {
	_, err := rs.sc.call(MsgCoordCreate, CoordReq{Path: path, Data: data, All: true})
	return err
}

func (rs *RemoteStore) Get(path string) ([]byte, cluster.Stat, error) {
	cr, err := rs.record(MsgCoordGet, CoordReq{Path: path})
	return cr.Data, statOf(cr), err
}

func (rs *RemoteStore) Set(path string, data []byte, version int64) (cluster.Stat, error) {
	cr, err := rs.record(MsgCoordSet, CoordReq{Path: path, Data: data, Version: version})
	return statOf(cr), err
}

func (rs *RemoteStore) Delete(path string, version int64) error {
	_, err := rs.sc.call(MsgCoordDelete, CoordReq{Path: path, Version: version})
	return err
}

func (rs *RemoteStore) Children(path string) ([]string, error) {
	cr, err := rs.record(MsgCoordChildren, CoordReq{Path: path})
	return cr.Children, err
}

func (rs *RemoteStore) Exists(path string) bool {
	rep, err := rs.sc.call(MsgCoordExists, CoordReq{Path: path})
	return err == nil && rep.Count == 1
}

// WatchData arms a one-shot watch on a node's data. The returned channel
// delivers exactly one event and closes, matching the local store. Under
// the hood the client long-polls, re-arming with the version it last
// observed — so a lost connection (or an idle 30s server timeout) re-arms
// against the SAME baseline and a change that happened during the outage is
// still reported, never lost.
func (rs *RemoteStore) WatchData(path string) (<-chan cluster.Event, error) {
	return rs.watch(MsgCoordWatchData, path)
}

// WatchChildren is WatchData for a node's child set (tracked by cversion).
func (rs *RemoteStore) WatchChildren(path string) (<-chan cluster.Event, error) {
	return rs.watch(MsgCoordWatchChildren, path)
}

func (rs *RemoteStore) watch(t MessageType, path string) (<-chan cluster.Event, error) {
	// Establish the baseline version the server compares against. A missing
	// node fails the arm with ErrNoNode, exactly like the local store.
	_, st, err := rs.Get(path)
	if err != nil {
		return nil, err
	}
	known := st.Version
	if t == MsgCoordWatchChildren {
		known = st.CVersion
	}
	ch := make(chan cluster.Event, 1)
	go rs.watchLoop(t, path, known, ch)
	return ch, nil
}

func (rs *RemoteStore) watchLoop(t MessageType, path string, known int64, ch chan cluster.Event) {
	for {
		rep, err := rs.sc.call(t, CoordReq{Path: path, KnownVersion: known})
		if err != nil {
			if placement.IsDisconnect(err) && !rs.sc.isClosed() {
				// Outage outlived the sync retry window: keep the watch alive
				// across the reconnect. The version baseline closes the
				// missed-event window.
				mcCoordWatchRearm.Inc()
				continue
			}
			// The node vanished (or the store closed): for a data watch the
			// deletion IS the event; otherwise give up silently — one-shot
			// watch channels are buffered and a closed channel reads as fired
			// for select loops.
			if t == MsgCoordWatchData && err != nil && !placement.IsDisconnect(err) {
				ch <- cluster.Event{Type: cluster.EventDeleted, Path: path}
			}
			close(ch)
			return
		}
		if rep.Count == 0 {
			mcCoordWatchRearm.Inc() // idle timeout: re-arm, same baseline
			continue
		}
		cr, derr := decode[CoordRep](rep, nil, "coord reply")
		if derr != nil {
			close(ch)
			return
		}
		ch <- cluster.Event{Type: cluster.EventType(cr.EventType), Path: cr.EventPath}
		close(ch)
		return
	}
}

// OpenSession opens a TTL session on the coord process. The session's
// liveness is server-side state: it survives connection drops shorter than
// the TTL and is renewable over a fresh connection.
func (rs *RemoteStore) OpenSession(ttl time.Duration) (cluster.CoordSession, error) {
	rep, err := rs.sc.call(MsgCoordSessionOpen, CoordReq{TTLMS: ttl.Milliseconds()})
	if err != nil {
		return nil, err
	}
	return &RemoteSession{rs: rs, id: rep.Offset, ttl: ttl, lastOK: time.Now()}, nil
}

// RemoteSession is a wire-held TTL session. Renew self-fences: once the
// server has been unreachable for longer than the TTL since the last
// successful renewal, the session reports ErrSessionClosed without waiting
// for the server to confirm — by then the server has expired it and
// released its ephemerals, so pretending otherwise would split-brain the
// lease holder.
type RemoteSession struct {
	rs  *RemoteStore
	id  int64
	ttl time.Duration

	mu     sync.Mutex
	lastOK time.Time
	fenced bool
}

var _ cluster.CoordSession = (*RemoteSession)(nil)

func (s *RemoteSession) ID() int64          { return s.id }
func (s *RemoteSession) TTL() time.Duration { return s.ttl }

func (s *RemoteSession) CreateEphemeral(path string, data []byte) error {
	if s.isFenced() {
		return fmt.Errorf("wire: session %d fenced: %w", s.id, cluster.ErrSessionClosed)
	}
	_, err := s.rs.sc.call(MsgCoordCreate, CoordReq{Path: path, Data: data, SessionID: s.id})
	return err
}

func (s *RemoteSession) isFenced() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fenced
}

// Renew extends the session's TTL. Across a dropped connection it retries
// until the deadline the SERVER will enforce — lastOK + TTL, with lastOK
// stamped before the renewing request went out, so the client's view is
// always the conservative one.
func (s *RemoteSession) Renew() error {
	s.mu.Lock()
	if s.fenced {
		s.mu.Unlock()
		return fmt.Errorf("wire: session %d fenced: %w", s.id, cluster.ErrSessionClosed)
	}
	deadline := s.lastOK.Add(s.ttl)
	s.mu.Unlock()
	for {
		attempt := time.Now()
		conn, err := s.rs.sc.acquire(deadline)
		if err != nil {
			s.fence()
			return fmt.Errorf("wire: session %d renew: coord unreachable past TTL: %w", s.id, cluster.ErrSessionClosed)
		}
		_, err = conn.Call(MsgCoordSessionRenew, CoordReq{SessionID: s.id})
		if err != nil && placement.IsDisconnect(err) {
			s.rs.sc.fault(conn)
			if time.Now().Before(deadline) {
				continue
			}
			s.fence()
			return fmt.Errorf("wire: session %d renew: coord unreachable past TTL: %w", s.id, cluster.ErrSessionClosed)
		}
		if err != nil {
			s.fence() // server-side verdict (expired): final either way
			return err
		}
		s.mu.Lock()
		s.lastOK = attempt
		s.mu.Unlock()
		mcSessionRenews.Inc()
		return nil
	}
}

func (s *RemoteSession) fence() {
	s.mu.Lock()
	if !s.fenced {
		s.fenced = true
		mcSessionFenced.Inc()
	}
	s.mu.Unlock()
}

// Close releases the session server-side (best effort — the TTL reaps it
// regardless).
func (s *RemoteSession) Close() {
	s.fence()
	_, _ = s.rs.sc.call(MsgCoordSessionClose, CoordReq{SessionID: s.id})
}
