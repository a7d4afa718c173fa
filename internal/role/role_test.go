package role

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/controller"
	"github.com/pravega-go/pravega/internal/keyspace"
	"github.com/pravega-go/pravega/internal/lts"
	"github.com/pravega-go/pravega/internal/obs"
	"github.com/pravega-go/pravega/internal/segment"
	"github.com/pravega-go/pravega/internal/segstore"
	"github.com/pravega-go/pravega/internal/wire"
)

// These tests run the multi-process topology inside one process over real
// TCP: the coord and store roles pravega-server runs, built by the same
// StartCoord/StartStore, minus fork/exec. The true multi-PROCESS version
// (with SIGKILL) lives in internal/faultinject's prockill suite; these pin
// the behaviors that suite builds on.

// listenTCP opens a loopback listener on a free port.
func listenTCP(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// openFS opens an lts.FS over the shared directory, as -lts-dir does.
func openFS(t *testing.T, dir string) lts.ChunkStorage {
	t.Helper()
	fs, err := lts.NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// tcpCoord starts a coord role for stores × containers containers.
func tcpCoord(t *testing.T, stores, containers, bookies int) *Coord {
	t.Helper()
	c, err := StartCoord(listenTCP(t), wire.DialTCP, CoordConfig{Stores: stores, Containers: containers, Bookies: bookies})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// tcpStore starts a store role against coord.
func tcpStore(t *testing.T, coord *Coord, ltsDir, id string, leaseTTL time.Duration) *Store {
	t.Helper()
	s, err := StartStore(listenTCP(t), wire.DialTCP, StoreConfig{
		ID:        id,
		CoordAddr: coord.Addr(),
		LTS:       openFS(t, ltsDir),
		LeaseTTL:  leaseTTL,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// startCluster starts a coord and two stores over a shared LTS directory,
// and waits until every container is claimed.
func startCluster(t *testing.T, leaseTTL time.Duration) (*Coord, map[string]*Store, int) {
	t.Helper()
	const total = 4
	coord := tcpCoord(t, 2, 2, 3)
	ltsDir := t.TempDir()
	stores := make(map[string]*Store, 2)
	for _, id := range []string{"store-0", "store-1"} {
		stores[id] = tcpStore(t, coord, ltsDir, id, leaseTTL)
	}
	awaitClusterClaims(t, coord.meta, total, 10*time.Second)
	return coord, stores, total
}

func dialClient(t *testing.T, addr string) *wire.Client {
	t.Helper()
	c, err := wire.NewClient(addr, wire.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// awaitClusterClaims waits until every container is claimed by a live host
// and every live host holds its share: a store that joined after another
// claimed everything is otherwise still waiting for the assigner to move
// containers to it, and a request that meets one mid-move fails.
func awaitClusterClaims(t *testing.T, meta cluster.Coord, total int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		ids, _, err := segstore.LiveHosts(meta)
		claims, cerr := segstore.ClaimedContainers(meta)
		if err == nil && cerr == nil && len(claims) == total && len(ids) > 0 {
			held := make(map[string]int, len(ids))
			for _, h := range ids {
				held[h] = 0
			}
			ok := true
			for _, owner := range claims {
				if _, live := held[owner]; !live {
					ok = false
					break
				}
				held[owner]++
			}
			for _, n := range held {
				ok = ok && n >= total/len(ids)
			}
			if ok {
				return
			}
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("cluster never converged: %d/%d containers claimed (live hosts %v)", len(claims), total, ids)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMultiProcClusterEndToEnd drives the full multi-process data path:
// external client -> coord placement snapshot -> per-store connections ->
// store-role servers -> remote coordination + remote WAL bookies.
func TestMultiProcClusterEndToEnd(t *testing.T) {
	coord, _, total := startCluster(t, time.Minute)
	c := dialClient(t, coord.Addr())

	// One segment per container so both store processes serve traffic.
	for i := 0; i < total; i++ {
		name := fmt.Sprintf("scope/stream/%d", i)
		payload := []byte(fmt.Sprintf("event-%d", i))
		if err := c.CreateSegment(name); err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		if _, err := c.AppendConditional(name, payload, 0); err != nil {
			t.Fatalf("append %s: %v", name, err)
		}
		rr, err := c.Read(name, 0, 1024, time.Second)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		if !bytes.Equal(rr.Data, payload) {
			t.Fatalf("read %s: got %q, want %q", name, rr.Data, payload)
		}
	}
}

// TestCommitAfterScaleAcrossStores pins the cross-store transaction commit:
// a scale seals the transaction's parent, the successor that takes the
// commit hashes to a container owned by the OTHER store process, and the
// router — shared by every deployment — degrades the merge to
// copy-and-delete.
func TestCommitAfterScaleAcrossStores(t *testing.T) {
	coord, _, total := startCluster(t, time.Minute)
	c := dialClient(t, coord.Addr())
	if err := c.CreateScope("xs"); err != nil {
		t.Fatal(err)
	}
	ownerOf := func(seg string) string {
		claims, err := segstore.ClaimedContainers(coord.meta)
		owner, ok := claims[keyspace.HashToContainer(segment.RoutingName(seg), total)]
		if err != nil || !ok {
			t.Fatalf("owner of %s: claims %v, %v", seg, claims, err)
		}
		return owner
	}

	// Which store a segment lands on is the parity of its name's FNV hash
	// (4 containers, preferred owner id%2), and a successor's name differs
	// from its parent's only in the segment and epoch numbers: splitting
	// segment 0 of a two-segment stream ("0.#epoch.0" -> "2.#epoch.1") flips
	// that parity. The loop only guards against a non-preferred placement.
	for i := 0; i < 8; i++ {
		stream := fmt.Sprintf("s%d", i)
		if err := c.CreateStream(controller.StreamConfig{Scope: "xs", Name: stream, InitialSegments: 2}); err != nil {
			t.Fatal(err)
		}
		segs, err := c.GetActiveSegments("xs", stream)
		if err != nil {
			t.Fatal(err)
		}
		parent := segs[0]
		txn, err := c.BeginTxn("xs", stream, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		var shadow string
		for _, ts := range txn.Segments {
			if ts.Parent.ID == parent.ID {
				shadow = ts.Shadow
			}
		}
		payload := []byte(fmt.Sprintf("txn-payload-%d", i))
		if _, err := c.AppendConditional(shadow, payload, 0); err != nil {
			t.Fatal(err)
		}
		if err := c.Scale("xs", stream, []int64{parent.ID.Number}, parent.KeyRange.Split(2)); err != nil {
			t.Fatal(err)
		}
		succ, err := c.GetActiveSegments("xs", stream)
		if err != nil {
			t.Fatal(err)
		}
		// The commit lands in the successor covering the parent's low bound.
		var target string
		for _, s := range succ {
			if s.KeyRange.Contains(parent.KeyRange.Low) {
				target = s.ID.QualifiedName()
			}
		}
		if ownerOf(target) == ownerOf(shadow) {
			if err := c.AbortTxn("xs", stream, txn.ID); err != nil {
				t.Fatal(err)
			}
			continue
		}

		if err := c.CommitTxn("xs", stream, txn.ID); err != nil {
			t.Fatalf("commit after scale, shadow on %s and target on %s: %v", ownerOf(shadow), ownerOf(target), err)
		}
		// All or nothing: every transaction byte is in the target, none
		// elsewhere, and the shadow is gone.
		rr, err := c.Read(target, 0, 1024, time.Second)
		if err != nil || !bytes.Equal(rr.Data, payload) {
			t.Fatalf("target after commit: %q, %v; want %q", rr.Data, err, payload)
		}
		for _, s := range succ {
			if qn := s.ID.QualifiedName(); qn != target {
				if info, err := c.GetInfo(qn); err != nil || info.Length != 0 {
					t.Fatalf("segment %s after commit: %+v, %v; want empty", qn, info, err)
				}
			}
		}
		if _, err := c.GetInfo(shadow); !errors.Is(err, segstore.ErrSegmentNotFound) {
			t.Fatalf("shadow after commit: %v, want ErrSegmentNotFound", err)
		}
		return
	}
	t.Fatal("no stream put a transaction's commit target on the other store")
}

// TestIdleReaderRepinsViaEpochWatch pins the reader-group epoch
// propagation: after a store dies, an IDLE client re-resolves placement
// through its background epoch watch — so its next read goes straight to
// the new owner with zero ErrWrongHost round-trips.
func TestIdleReaderRepinsViaEpochWatch(t *testing.T) {
	coord, stores, total := startCluster(t, time.Minute)
	c := dialClient(t, coord.Addr())

	const name = "repin/stream/0"
	payload := []byte("pinned event")
	if err := c.CreateSegment(name); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AppendConditional(name, payload, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(name, 0, 1024, time.Second); err != nil {
		t.Fatal(err)
	}

	// Kill the owner (server gone, session gone — a process death as seen
	// from the rest of the cluster). The reader now goes idle.
	cid := keyspace.HashToContainer(segment.RoutingName(name), total)
	claims, err := segstore.ClaimedContainers(coord.meta)
	if err != nil {
		t.Fatal(err)
	}
	owner := claims[cid]
	stores[owner].Crash()
	survivor := "store-0"
	if owner == survivor {
		survivor = "store-1"
	}

	// The idle client must converge on its own: no data-plane calls here,
	// only the epoch watch riding the coord connection.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if home, err := c.OwnerOf(name); err == nil && home == survivor {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("idle client never re-resolved container %d to the survivor via the epoch watch", cid)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Let the survivor finish fencing and replaying the container (this may
	// legitimately retry; the assertion window opens after).
	for {
		if _, err := c.GetInfo(name); err == nil {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatal("survivor never served the failed-over segment")
		}
		time.Sleep(10 * time.Millisecond)
	}

	wrongHost := obs.Default().Counter("pravega_wire_client_wrong_host_retries_total",
		"Synchronous operations re-routed after a wrong-host reply")
	base := wrongHost.Value()
	rr, err := c.Read(name, 0, 1024, time.Second)
	if err != nil {
		t.Fatalf("post-failover read: %v", err)
	}
	if !bytes.Equal(rr.Data, payload) {
		t.Fatalf("post-failover read: got %q, want %q", rr.Data, payload)
	}
	if got := wrongHost.Value(); got != base {
		t.Fatalf("re-pinned idle reader paid %d wrong-host round-trips, want 0", got-base)
	}
}

// leaseExpiries is the ownership manager's self-fence counter.
var leaseExpiries = obs.Default().Counter("pravega_ownership_lease_expiries_total",
	"Store sessions lost to lease expiry (store self-fenced)")

// TestGracefulStoreShutdownReleasesClaims pins the SIGTERM path — the
// store role's Drain, as pravega-server runs it: a drained store hands its
// containers off (StopContainer flush + claim release) instead of letting
// survivors wait out the lease TTL, and no lease expiry is recorded. The
// lease TTL is set far beyond the convergence timeout so a handoff by
// expiry would fail the test.
func TestGracefulStoreShutdownReleasesClaims(t *testing.T) {
	coord, stores, total := startCluster(t, 5*time.Minute)
	c := dialClient(t, coord.Addr())

	// Seed data in every container so the drain's StopContainer path flushes
	// real segments.
	payloads := make(map[string][]byte, total)
	for i := 0; i < total; i++ {
		name := fmt.Sprintf("drain/stream/%d", i)
		payloads[name] = []byte(fmt.Sprintf("durable-%d", i))
		if err := c.CreateSegment(name); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AppendConditional(name, payloads[name], 0); err != nil {
			t.Fatal(err)
		}
	}

	base := leaseExpiries.Value()
	if err := stores["store-0"].Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	select {
	case <-stores["store-0"].Done():
	default:
		t.Fatal("drained store's Done is still open")
	}

	// Survivor takes over every container well inside the 5-minute TTL.
	awaitClusterClaims(t, coord.meta, total, 10*time.Second)
	if got := leaseExpiries.Value(); got != base {
		t.Fatalf("clean shutdown recorded %d lease expiries, want 0", got-base)
	}

	// Everything the drained store held is still readable.
	for name, want := range payloads {
		var rr segstore.ReadResult
		var err error
		deadline := time.Now().Add(10 * time.Second)
		for {
			rr, err = c.Read(name, 0, 1024, time.Second)
			if err == nil {
				break
			}
			if !time.Now().Before(deadline) {
				t.Fatalf("read %s after drain: %v", name, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if !bytes.Equal(rr.Data, want) {
			t.Fatalf("read %s after drain: got %q, want %q", name, rr.Data, want)
		}
	}
}

// TestStoreDoneOnLeaseLoss pins the store role's lease-loss exit: when the
// coord expires the store's session, the store's next renewal learns it,
// the ownership manager crashes the store, and Done — what pravega-server
// exits on — closes within the TTL plus a second, counted as one lease
// expiry.
func TestStoreDoneOnLeaseLoss(t *testing.T) {
	const ttl = 500 * time.Millisecond
	coord := tcpCoord(t, 1, 2, 3)
	s := tcpStore(t, coord, t.TempDir(), "store-0", ttl)
	awaitClusterClaims(t, coord.meta, 2, 10*time.Second)

	// Expiring a session is closing it server-side: every ephemeral it owns
	// goes, and the holder's next renewal is refused. The store's host
	// registration names the session.
	_, stat, err := coord.meta.Get("/pravega/hosts/store-0")
	if err != nil {
		t.Fatal(err)
	}
	sess := coord.meta.Session(stat.Owner)
	if sess == nil {
		t.Fatalf("no open session %d owns the store's registration", stat.Owner)
	}
	base := leaseExpiries.Value()
	sess.Close()

	select {
	case <-s.Done():
	case <-time.After(ttl + time.Second):
		t.Fatalf("store still running %v after its session lapsed", ttl+time.Second)
	}
	// The crash runs after the counter moves, so this cannot race it.
	if got := leaseExpiries.Value() - base; got != 1 {
		t.Fatalf("lease expiries rose by %d, want 1", got)
	}
}

// coordRequests is a TCP proxy in front of the coord that counts the
// request frames a store sends it, by type.
type coordRequests struct {
	mu    sync.Mutex
	n     map[wire.MessageType]int
	conns []net.Conn
}

func countCoordRequests(t *testing.T, coordAddr string) (string, *coordRequests) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cr := &coordRequests{n: make(map[wire.MessageType]int)}
	t.Cleanup(func() {
		_ = ln.Close()
		cr.mu.Lock()
		defer cr.mu.Unlock()
		for _, c := range cr.conns {
			_ = c.Close()
		}
	})
	go func() {
		for {
			cc, err := ln.Accept()
			if err != nil {
				return
			}
			sc, err := net.Dial("tcp", coordAddr)
			if err != nil {
				_ = cc.Close()
				continue
			}
			cr.mu.Lock()
			cr.conns = append(cr.conns, cc, sc)
			cr.mu.Unlock()
			go func() { _, _ = io.Copy(cc, sc) }()
			go func() {
				for {
					frame, err := wire.ReadRawFrame(cc)
					if err != nil {
						_ = sc.Close()
						return
					}
					cr.mu.Lock()
					cr.n[wire.RawFrameType(frame)]++
					cr.mu.Unlock()
					if _, err := sc.Write(frame); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), cr
}

func (cr *coordRequests) snapshot() (int, map[wire.MessageType]int) {
	cr.mu.Lock()
	defer cr.mu.Unlock()
	total, byType := 0, make(map[wire.MessageType]int, len(cr.n))
	for typ, n := range cr.n {
		total += n
		byType[typ] = n
	}
	return total, byType
}

// TestIdleStoreSendsNoCoordPolls: a store serving its containers with no
// traffic talks to the coord only to renew its lease (every TTL/3) and to
// re-arm its one assignment watch — no polling.
func TestIdleStoreSendsNoCoordPolls(t *testing.T) {
	const ttl = 3 * time.Second
	coord := tcpCoord(t, 1, 4, 3)
	proxy, counter := countCoordRequests(t, coord.Addr())
	s, err := StartStore(listenTCP(t), wire.DialTCP, StoreConfig{
		ID:        "store-0",
		CoordAddr: proxy,
		LTS:       openFS(t, t.TempDir()),
		LeaseTTL:  ttl,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	awaitClusterClaims(t, coord.meta, 4, 10*time.Second)
	time.Sleep(200 * time.Millisecond) // the watch re-arms after the starts

	before, _ := counter.snapshot()
	time.Sleep(3 * time.Second)
	after, byType := counter.snapshot()
	t.Logf("idle store: %d coord requests in 3s", after-before)
	if n := after - before; n > 5 {
		t.Fatalf("idle store sent %d coord requests in 3s at a %v lease, want <= 5 (totals by type since start: %v)", n, ttl, byType)
	}
}
