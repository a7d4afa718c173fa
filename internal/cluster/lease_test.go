package cluster

import (
	"errors"
	"testing"
	"time"
)

func TestLeaseExpiryDropsEphemerals(t *testing.T) {
	s := NewStore()
	if err := s.Create("/claims", nil); err != nil {
		t.Fatal(err)
	}
	sess := s.NewSessionTTL(30 * time.Millisecond)
	if err := sess.CreateEphemeral("/claims/a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if !s.Exists("/claims/a") {
		t.Fatal("claim should exist while lease is live")
	}
	if err := sess.Renew(); err != nil {
		t.Fatalf("renew on live session: %v", err)
	}
	time.Sleep(60 * time.Millisecond)
	// The lease timer expired the session at its deadline.
	if s.Exists("/claims/a") {
		t.Fatal("claim should have expired with the lease")
	}
	if err := sess.Renew(); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("renew after expiry: got %v, want ErrSessionClosed", err)
	}
	if err := sess.CreateEphemeral("/claims/b", nil); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("create after expiry: got %v, want ErrSessionClosed", err)
	}
}

func TestLeaseRenewKeepsSessionAlive(t *testing.T) {
	s := NewStore()
	if err := s.Create("/claims", nil); err != nil {
		t.Fatal(err)
	}
	sess := s.NewSessionTTL(40 * time.Millisecond)
	if err := sess.CreateEphemeral("/claims/a", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		time.Sleep(15 * time.Millisecond)
		if err := sess.Renew(); err != nil {
			t.Fatalf("renew %d: %v", i, err)
		}
	}
	if !s.Exists("/claims/a") {
		t.Fatal("claim should survive while renewed")
	}
}

func TestLeaseExpiryFiresWatches(t *testing.T) {
	s := NewStore()
	if err := s.Create("/claims", nil); err != nil {
		t.Fatal(err)
	}
	sess := s.NewSessionTTL(20 * time.Millisecond)
	if err := sess.CreateEphemeral("/claims/a", nil); err != nil {
		t.Fatal(err)
	}
	ch, err := s.WatchData("/claims/a")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond)
	select {
	case ev := <-ch:
		if ev.Type != EventDeleted {
			t.Fatalf("watch event: got %v, want EventDeleted", ev.Type)
		}
	case <-time.After(time.Second):
		t.Fatal("watch did not fire on lease expiry")
	}
}

func TestZeroTTLNeverExpires(t *testing.T) {
	s := NewStore()
	if err := s.Create("/claims", nil); err != nil {
		t.Fatal(err)
	}
	sess := s.NewSessionTTL(0)
	if sess.TTL() != 0 {
		t.Fatalf("TTL: got %v, want 0", sess.TTL())
	}
	if err := sess.CreateEphemeral("/claims/a", nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if !s.Exists("/claims/a") {
		t.Fatal("zero-TTL session must not expire")
	}
	sess.Close()
	if s.Exists("/claims/a") {
		t.Fatal("close should still drop ephemerals")
	}
}

// A lapsed lease must leave nothing behind: the by-id lookup remote sessions
// are addressed through misses it, and the session map is
// back to the size it had before the session was opened (the wire server
// used to keep its own map, which an expired session never left).
func TestSessionLookupSweepsExpired(t *testing.T) {
	s := NewStore()
	keep := s.NewSession()
	before := len(s.sessions)
	sess := s.NewSessionTTL(20 * time.Millisecond)
	if got := s.Session(sess.ID()); got != sess {
		t.Fatalf("lookup of live session = %v, want %v", got, sess)
	}
	time.Sleep(40 * time.Millisecond)
	if got := s.Session(sess.ID()); got != nil {
		t.Fatalf("lookup of lapsed session = %v, want nil", got)
	}
	if got := len(s.sessions); got != before {
		t.Fatalf("%d sessions held after the lapse, want %d", got, before)
	}
	if s.Session(keep.ID()) != keep {
		t.Fatal("non-expiring session lost by the sweep")
	}
	keep.Close()
	if s.Session(keep.ID()) != nil {
		t.Fatal("closed session still resolvable")
	}
}

// TestLeaseExpiresAtDeadlineWithoutTimer: a lease timer can run late, but
// the deadline still holds — past it, Renew, an ephemeral create and the
// by-id lookup all find the session closed, and its nodes are gone.
func TestLeaseExpiresAtDeadlineWithoutTimer(t *testing.T) {
	s := NewStore()
	sess := s.NewSessionTTL(20 * time.Millisecond)
	if err := sess.CreateEphemeral("/a", nil); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	sess.expiry.Stop() // the timer is late: it has not run by the deadline
	s.mu.Unlock()
	time.Sleep(40 * time.Millisecond)
	if err := sess.Renew(); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("renew past the deadline: %v, want ErrSessionClosed", err)
	}
	if s.Exists("/a") {
		t.Fatal("ephemeral node outlived its lease")
	}

	for _, op := range []func(*Session) bool{
		func(se *Session) bool { return errors.Is(se.CreateEphemeral("/b", nil), ErrSessionClosed) },
		func(se *Session) bool { return s.Session(se.ID()) == nil },
	} {
		se := s.NewSessionTTL(20 * time.Millisecond)
		s.mu.Lock()
		se.expiry.Stop()
		s.mu.Unlock()
		time.Sleep(40 * time.Millisecond)
		if !op(se) {
			t.Fatal("an expired session was used past its deadline")
		}
	}
	if s.Exists("/b") {
		t.Fatal("create on an expired session left a node")
	}
}
