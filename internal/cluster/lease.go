package cluster

import "time"

// Lease-based sessions (§4.4): a session created with NewSessionTTL must be
// renewed within its TTL or the store expires it exactly as if it had been
// closed — its ephemeral nodes vanish and their watches fire. This is the
// failure detector behind container failover: a segment store heartbeats
// its session, and a wedged or killed store stops renewing, so its
// container claims disappear and survivors re-acquire them. Each lease
// holds a timer that closes the session at its deadline, whether or not
// anyone is looking: the assigner learns of a dead store from a watch. A
// timer can run late (GC, -race), so the session's own operations check
// the deadline too: past it, no renewal or create brings the lease back.

// NewSessionTTL opens a session that expires unless Renew is called at
// least every ttl. A ttl <= 0 degenerates to a plain non-expiring session.
func (s *Store) NewSessionTTL(ttl time.Duration) *Session {
	sess := s.NewSession()
	if ttl <= 0 {
		return sess
	}
	s.mu.Lock()
	sess.ttl = ttl
	sess.deadline = time.Now().Add(ttl)
	sess.expiry = time.AfterFunc(ttl, func() { s.expire(sess) })
	s.mu.Unlock()
	return sess
}

// expire is a lease timer firing: it closes the session, unless it was
// renewed since the timer was armed — then it re-arms for the time left.
func (s *Store) expire(se *Session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if left := time.Until(se.deadline); left > 0 {
		se.expiry.Reset(left)
	} else {
		s.closeSessionLocked(se)
	}
}

// liveLocked reports whether se is open, closing it first when its deadline
// has passed before its timer ran.
func (s *Store) liveLocked(se *Session) bool {
	if se.open && se.ttl > 0 && time.Now().After(se.deadline) {
		s.closeSessionLocked(se)
	}
	return se.open
}

// Renew extends the session's lease by its TTL. It returns ErrSessionClosed
// when the session has already expired (or was closed): the caller has lost
// every ephemeral node it held and must treat itself as fenced.
func (se *Session) Renew() error {
	s := se.store
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.liveLocked(se) {
		return ErrSessionClosed
	}
	if se.ttl > 0 {
		se.deadline = time.Now().Add(se.ttl)
	}
	return nil
}

// TTL returns the session's lease duration (0 for non-expiring sessions).
func (se *Session) TTL() time.Duration {
	se.store.mu.Lock()
	defer se.store.mu.Unlock()
	return se.ttl
}
