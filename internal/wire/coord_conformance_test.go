package wire

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/cluster"
)

// The coordination-store conformance suite runs every case against BOTH the
// local cluster.Store and a RemoteStore reaching one over the wire: the
// remote implementation must be indistinguishable through the cluster.Coord
// surface. Remote-only cases (reconnects) follow at the bottom.

// DropConn severs the current connection without closing the store: the
// reconnect loop brings it back, which lets a test prove sessions and
// watches ride out a connection loss.
func (rs *RemoteStore) DropConn() {
	if conn := rs.sc.current(); conn != nil {
		rs.sc.fault(conn)
	}
}

// newRemoteCoord serves a fresh store over TCP and dials it.
func newRemoteCoord(t *testing.T) *RemoteStore {
	t.Helper()
	srv := serveConfig(t, ServerConfig{Coord: cluster.NewStore()})
	rs, err := DialCoord(srv.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rs.Close)
	return rs
}

func TestCoordConformance(t *testing.T) {
	cases := []struct {
		name string
		fn   func(t *testing.T, cs cluster.Coord)
	}{
		{"create-get", func(t *testing.T, cs cluster.Coord) {
			if err := cs.Create("/a", []byte("one")); err != nil {
				t.Fatal(err)
			}
			data, st, err := cs.Get("/a")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, []byte("one")) || st.Version != 0 {
				t.Fatalf("got %q v%d, want \"one\" v0", data, st.Version)
			}
		}},
		{"create-exists-err", func(t *testing.T, cs cluster.Coord) {
			if err := cs.Create("/a", nil); err != nil {
				t.Fatal(err)
			}
			if err := cs.Create("/a", nil); !errors.Is(err, cluster.ErrNodeExists) {
				t.Fatalf("got %v, want ErrNodeExists", err)
			}
		}},
		{"create-no-parent", func(t *testing.T, cs cluster.Coord) {
			if err := cs.Create("/x/y/z", nil); !errors.Is(err, cluster.ErrNoParent) {
				t.Fatalf("got %v, want ErrNoParent", err)
			}
			if err := cs.CreateAll("/x/y/z", []byte("deep")); err != nil {
				t.Fatal(err)
			}
			data, _, err := cs.Get("/x/y/z")
			if err != nil || string(data) != "deep" {
				t.Fatalf("got %q, %v", data, err)
			}
		}},
		{"get-missing", func(t *testing.T, cs cluster.Coord) {
			if _, _, err := cs.Get("/missing"); !errors.Is(err, cluster.ErrNoNode) {
				t.Fatalf("got %v, want ErrNoNode", err)
			}
		}},
		{"set-cas", func(t *testing.T, cs cluster.Coord) {
			if err := cs.Create("/a", []byte("v0")); err != nil {
				t.Fatal(err)
			}
			st, err := cs.Set("/a", []byte("v1"), 0)
			if err != nil || st.Version != 1 {
				t.Fatalf("set v0->v1: %v (version %d)", err, st.Version)
			}
			if _, err := cs.Set("/a", []byte("bad"), 0); !errors.Is(err, cluster.ErrBadVersion) {
				t.Fatalf("stale CAS: got %v, want ErrBadVersion", err)
			}
			st, err = cs.Set("/a", []byte("v2"), -1)
			if err != nil || st.Version != 2 {
				t.Fatalf("unconditional set: %v (version %d)", err, st.Version)
			}
			data, _, _ := cs.Get("/a")
			if string(data) != "v2" {
				t.Fatalf("got %q, want v2", data)
			}
		}},
		{"delete-cas", func(t *testing.T, cs cluster.Coord) {
			if err := cs.Create("/a", nil); err != nil {
				t.Fatal(err)
			}
			if _, err := cs.Set("/a", []byte("x"), -1); err != nil {
				t.Fatal(err)
			}
			if err := cs.Delete("/a", 0); !errors.Is(err, cluster.ErrBadVersion) {
				t.Fatalf("stale delete: got %v, want ErrBadVersion", err)
			}
			if err := cs.Delete("/a", 1); err != nil {
				t.Fatal(err)
			}
			if cs.Exists("/a") {
				t.Fatal("node still exists after delete")
			}
		}},
		{"delete-not-empty", func(t *testing.T, cs cluster.Coord) {
			if err := cs.CreateAll("/a/b", nil); err != nil {
				t.Fatal(err)
			}
			if err := cs.Delete("/a", -1); !errors.Is(err, cluster.ErrNotEmpty) {
				t.Fatalf("got %v, want ErrNotEmpty", err)
			}
		}},
		{"children", func(t *testing.T, cs cluster.Coord) {
			for _, p := range []string{"/dir", "/dir/a", "/dir/b", "/dir/c"} {
				if err := cs.Create(p, nil); err != nil {
					t.Fatal(err)
				}
			}
			kids, err := cs.Children("/dir")
			if err != nil {
				t.Fatal(err)
			}
			if len(kids) != 3 {
				t.Fatalf("got %d children (%v), want 3", len(kids), kids)
			}
		}},
		{"watch-data-fires-on-set", func(t *testing.T, cs cluster.Coord) {
			if err := cs.Create("/w", []byte("v0")); err != nil {
				t.Fatal(err)
			}
			ch, err := cs.WatchData("/w")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cs.Set("/w", []byte("v1"), -1); err != nil {
				t.Fatal(err)
			}
			select {
			case ev := <-ch:
				if ev.Type != cluster.EventChanged {
					t.Fatalf("got event %v, want EventChanged", ev.Type)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("watch never fired")
			}
		}},
		{"watch-data-missing-node", func(t *testing.T, cs cluster.Coord) {
			if _, err := cs.WatchData("/missing"); !errors.Is(err, cluster.ErrNoNode) {
				t.Fatalf("got %v, want ErrNoNode", err)
			}
		}},
		{"watch-children-fires-on-create", func(t *testing.T, cs cluster.Coord) {
			if err := cs.Create("/dir", nil); err != nil {
				t.Fatal(err)
			}
			ch, err := cs.WatchChildren("/dir")
			if err != nil {
				t.Fatal(err)
			}
			if err := cs.Create("/dir/kid", nil); err != nil {
				t.Fatal(err)
			}
			select {
			case ev := <-ch:
				if ev.Type != cluster.EventChildren {
					t.Fatalf("got event %v, want EventChildren", ev.Type)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("child watch never fired")
			}
		}},
		{"ephemeral-vanishes-on-close", func(t *testing.T, cs cluster.Coord) {
			sess, err := cs.OpenSession(time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.CreateEphemeral("/eph", []byte("me")); err != nil {
				t.Fatal(err)
			}
			_, st, err := cs.Get("/eph")
			if err != nil || !st.Ephemeral {
				t.Fatalf("ephemeral stat: %+v, %v", st, err)
			}
			sess.Close()
			if cs.Exists("/eph") {
				t.Fatal("ephemeral survived session close")
			}
		}},
		{"lease-expiry", func(t *testing.T, cs cluster.Coord) {
			sess, err := cs.OpenSession(150 * time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.CreateEphemeral("/lease", nil); err != nil {
				t.Fatal(err)
			}
			// Renewing within the TTL keeps it alive.
			time.Sleep(75 * time.Millisecond)
			if err := sess.Renew(); err != nil {
				t.Fatalf("renew within TTL: %v", err)
			}
			if !cs.Exists("/lease") {
				t.Fatal("ephemeral vanished while session was live")
			}
			// Letting the TTL lapse kills session and ephemeral together.
			time.Sleep(400 * time.Millisecond)
			if cs.Exists("/lease") {
				t.Fatal("ephemeral survived lease expiry")
			}
			if err := sess.Renew(); !errors.Is(err, cluster.ErrSessionClosed) {
				t.Fatalf("renew after expiry: got %v, want ErrSessionClosed", err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run("local/"+tc.name, func(t *testing.T) {
			t.Parallel()
			tc.fn(t, cluster.NewStore())
		})
		t.Run("remote/"+tc.name, func(t *testing.T) {
			t.Parallel()
			tc.fn(t, newRemoteCoord(t))
		})
	}
}

// TestRemoteCoordWatchSurvivesReconnect pins the version-baseline re-arm: a
// watch armed before a connection drop still delivers the change made while
// (or after) the connection was down.
func TestRemoteCoordWatchSurvivesReconnect(t *testing.T) {
	rs := newRemoteCoord(t)
	if err := rs.Create("/w", []byte("v0")); err != nil {
		t.Fatal(err)
	}
	ch, err := rs.WatchData("/w")
	if err != nil {
		t.Fatal(err)
	}
	rs.DropConn()
	// The change can land while the client is still reconnecting; the
	// re-armed long poll carries the old version baseline, so the server
	// answers immediately instead of waiting for a *further* change.
	if _, err := rs.Set("/w", []byte("v1"), -1); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-ch:
		if ev.Type != cluster.EventChanged {
			t.Fatalf("got event %v, want EventChanged", ev.Type)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watch never fired across the reconnect")
	}
}

// TestRemoteCoordSessionSurvivesReconnect pins ZooKeeper's rule: a dropped
// connection is not a dropped session. Ephemerals survive an outage shorter
// than the TTL, and Renew over the fresh connection re-adopts the session.
func TestRemoteCoordSessionSurvivesReconnect(t *testing.T) {
	rs := newRemoteCoord(t)
	sess, err := rs.OpenSession(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.CreateEphemeral("/eph", []byte("me")); err != nil {
		t.Fatal(err)
	}
	rs.DropConn()
	if err := sess.Renew(); err != nil {
		t.Fatalf("renew across reconnect: %v", err)
	}
	if !rs.Exists("/eph") {
		t.Fatal("ephemeral lost across a sub-TTL connection drop")
	}
	// And an outage longer than the TTL self-fences even if the server
	// can't be asked: here the session simply expired server-side.
	short, err := rs.OpenSession(200 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := short.CreateEphemeral("/eph2", nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	if err := short.Renew(); !errors.Is(err, cluster.ErrSessionClosed) {
		t.Fatalf("renew after TTL lapse: got %v, want ErrSessionClosed", err)
	}
	if rs.Exists("/eph2") {
		t.Fatal("ephemeral survived TTL expiry")
	}
}

// TestRemoteCoordChildWatchAcrossReconnect does the reconnect dance for
// children watches (cversion baseline).
func TestRemoteCoordChildWatchAcrossReconnect(t *testing.T) {
	rs := newRemoteCoord(t)
	if err := rs.Create("/dir", nil); err != nil {
		t.Fatal(err)
	}
	ch, err := rs.WatchChildren("/dir")
	if err != nil {
		t.Fatal(err)
	}
	rs.DropConn()
	if err := rs.Create("/dir/kid", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-ch:
		if ev.Type != cluster.EventChildren {
			t.Fatalf("got event %v, want EventChildren", ev.Type)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("children watch never fired across the reconnect")
	}
}
