package wire

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/bookkeeper"
	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/controller"
	"github.com/pravega-go/pravega/internal/keyspace"
	"github.com/pravega-go/pravega/internal/lts"
	"github.com/pravega-go/pravega/internal/obs"
	"github.com/pravega-go/pravega/internal/placement"
	"github.com/pravega-go/pravega/internal/segment"
	"github.com/pravega-go/pravega/internal/segstore"
)

// These tests assemble the multi-process topology in one process over real
// TCP: a coord assembly (coordination store + bookies behind a wire server)
// and store assemblies that reach it exclusively through RemoteStore /
// RemoteBookie — the same wiring cmd/pravega-server's coord and store roles
// use, minus fork/exec. The true multi-PROCESS version (with SIGKILL) lives
// in internal/faultinject's prockill suite; these pin the library-level
// behaviors that suite builds on.

// multiProcCoord is the coord role: coordination store, bookie ensemble,
// placement snapshots, and the controller over the wire-transport router,
// served over one listener.
type multiProcCoord struct {
	meta  *cluster.Store
	ctrl  *controller.Controller
	srv   *Server
	total int
}

func startMultiProcCoord(t *testing.T, stores, containersPerStore, bookies int) *multiProcCoord {
	t.Helper()
	meta := cluster.NewStore()
	total := stores * containersPerStore
	bkNodes := make(map[string]bookkeeper.Node, bookies)
	bookieIDs := make([]string, 0, bookies)
	for i := 0; i < bookies; i++ {
		id := fmt.Sprintf("bookie-%d", i)
		bkNodes[id] = bookkeeper.NewBookie(bookkeeper.BookieConfig{ID: id})
		bookieIDs = append(bookieIDs, id)
	}
	repl := bookkeeper.DefaultReplication()
	if bookies < repl.Ensemble {
		repl = bookkeeper.ReplicationConfig{Ensemble: bookies, WriteQuorum: bookies, AckQuorum: (bookies + 1) / 2}
	}
	if err := PublishClusterTopology(meta, ClusterTopology{
		TotalContainers: total, Bookies: bookieIDs, Replication: repl,
	}); err != nil {
		t.Fatal(err)
	}
	source := placement.CoordSource{Coord: meta, Total: total}
	plane, err := placement.New(placement.Config{
		Source: source,
		Dial:   StoreDialer(ClientConfig{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = plane.Close() })
	ctrl, err := controller.New(controller.Config{Data: plane, Cluster: meta})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrl.Close)
	srv, err := NewServer(ServerConfig{
		Ctrl:      ctrl,
		Coord:     meta,
		Bookies:   bkNodes,
		Placement: source,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return &multiProcCoord{meta: meta, ctrl: ctrl, srv: srv, total: total}
}

// multiProcStore is the store role: one segment store whose coordination,
// WAL, and topology all arrive over the wire from the coord assembly.
type multiProcStore struct {
	id  string
	rs  *RemoteStore
	st  *segstore.Store
	srv *Server
}

func startMultiProcStore(t *testing.T, coordAddr, ltsDir, id string, leaseTTL time.Duration) *multiProcStore {
	t.Helper()
	rs, err := DialCoord(coordAddr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	topo, err := FetchClusterTopology(rs, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	bk, err := bookkeeper.NewClient(bookkeeper.ClientConfig{Meta: rs})
	if err != nil {
		t.Fatal(err)
	}
	for _, bid := range topo.Bookies {
		bk.RegisterBookie(NewRemoteBookie(bid, rs))
	}
	fsStore, err := lts.NewFS(ltsDir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := segstore.NewStore(segstore.StoreConfig{
		ID:              id,
		TotalContainers: topo.TotalContainers,
		Container: segstore.ContainerConfig{
			BK: bk, Meta: rs, Replication: topo.Replication, LTS: fsStore,
		},
		Cluster:  rs,
		LeaseTTL: leaseTTL,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Data: placement.Local{St: st}, Load: st.LoadReport}, "127.0.0.1:0")
	if err != nil {
		_ = st.Close()
		t.Fatal(err)
	}
	mgr, err := segstore.StartOwnershipManager(st, segstore.OwnershipConfig{
		RebalanceInterval: 20 * time.Millisecond,
		AdvertiseAddr:     srv.Addr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr.Run()
	s := &multiProcStore{id: id, rs: rs, st: st, srv: srv}
	t.Cleanup(func() {
		_ = s.srv.Close()
		_ = s.st.Close() // idempotent after Crash/Drain
		s.rs.Close()
	})
	return s
}

// awaitClusterClaims waits until every container is claimed by a live host.
func awaitClusterClaims(t *testing.T, meta cluster.Coord, total int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		ids, _, err := segstore.LiveHosts(meta)
		claims, cerr := segstore.ClaimedContainers(meta)
		if err == nil && cerr == nil && len(claims) == total {
			live := make(map[string]bool, len(ids))
			for _, h := range ids {
				live[h] = true
			}
			ok := true
			for _, owner := range claims {
				if !live[owner] {
					ok = false
					break
				}
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
	coord := startMultiProcCoord(t, 2, 2, 3)
	ltsDir := t.TempDir()
	startMultiProcStore(t, coord.srv.Addr(), ltsDir, "store-0", time.Minute)
	startMultiProcStore(t, coord.srv.Addr(), ltsDir, "store-1", time.Minute)
	awaitClusterClaims(t, coord.meta, coord.total, 10*time.Second)

	c, err := NewClient(coord.srv.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	// One segment per container so both store processes serve traffic.
	for i := 0; i < coord.total; i++ {
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
// copy-and-delete. (Before the router, only the in-process cluster could do
// this; the coord's data plane forwarded a container-local merge to the
// target's store and got ErrSegmentNotFound for the shadow.)
func TestCommitAfterScaleAcrossStores(t *testing.T) {
	coord := startMultiProcCoord(t, 2, 2, 3)
	ltsDir := t.TempDir()
	startMultiProcStore(t, coord.srv.Addr(), ltsDir, "store-0", time.Minute)
	startMultiProcStore(t, coord.srv.Addr(), ltsDir, "store-1", time.Minute)
	awaitClusterClaims(t, coord.meta, coord.total, 10*time.Second)

	c, err := NewClient(coord.srv.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if err := c.CreateScope("xs"); err != nil {
		t.Fatal(err)
	}
	ownerOf := func(seg string) string {
		owner, err := segstore.ContainerOwner(coord.meta, keyspace.HashToContainer(segment.RoutingName(seg), coord.total))
		if err != nil {
			t.Fatalf("owner of %s: %v", seg, err)
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
	coord := startMultiProcCoord(t, 2, 2, 3)
	ltsDir := t.TempDir()
	stores := []*multiProcStore{
		startMultiProcStore(t, coord.srv.Addr(), ltsDir, "store-0", time.Minute),
		startMultiProcStore(t, coord.srv.Addr(), ltsDir, "store-1", time.Minute),
	}
	awaitClusterClaims(t, coord.meta, coord.total, 10*time.Second)

	c, err := NewClient(coord.srv.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

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
	cid := keyspace.HashToContainer(segment.RoutingName(name), coord.total)
	owner, err := segstore.ContainerOwner(coord.meta, cid)
	if err != nil {
		t.Fatal(err)
	}
	var victim, survivor *multiProcStore
	for _, s := range stores {
		if s.id == owner {
			victim = s
		} else {
			survivor = s
		}
	}
	_ = victim.srv.Close()
	victim.st.Crash()

	// The idle client must converge on its own: no data-plane calls here,
	// only the epoch watch riding the coord connection.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if home, err := c.OwnerOf(name); err == nil && home == survivor.id {
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

// TestGracefulStoreShutdownReleasesClaims pins the SIGTERM path: a drained
// store hands its containers off (StopContainer flush + claim release)
// instead of letting survivors wait out the lease TTL, and no lease-expiry
// is recorded. The lease TTL is set far beyond the convergence timeout so
// a handoff-by-expiry would fail the test.
func TestGracefulStoreShutdownReleasesClaims(t *testing.T) {
	coord := startMultiProcCoord(t, 2, 2, 3)
	ltsDir := t.TempDir()
	stores := []*multiProcStore{
		startMultiProcStore(t, coord.srv.Addr(), ltsDir, "store-0", 5*time.Minute),
		startMultiProcStore(t, coord.srv.Addr(), ltsDir, "store-1", 5*time.Minute),
	}
	awaitClusterClaims(t, coord.meta, coord.total, 10*time.Second)

	c, err := NewClient(coord.srv.Addr(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	// Seed data in every container so the drain's StopContainer path flushes
	// real segments.
	payloads := make(map[string][]byte, coord.total)
	for i := 0; i < coord.total; i++ {
		name := fmt.Sprintf("drain/stream/%d", i)
		payloads[name] = []byte(fmt.Sprintf("durable-%d", i))
		if err := c.CreateSegment(name); err != nil {
			t.Fatal(err)
		}
		if _, err := c.AppendConditional(name, payloads[name], 0); err != nil {
			t.Fatal(err)
		}
	}

	expiries := obs.Default().Counter("pravega_ownership_lease_expiries_total",
		"Store sessions lost to lease expiry (store self-fenced)")
	base := expiries.Value()

	drained := stores[0]
	_ = drained.srv.Close()
	if err := drained.st.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Survivor takes over every container well inside the 5-minute TTL.
	awaitClusterClaims(t, coord.meta, coord.total, 10*time.Second)
	if got := expiries.Value(); got != base {
		t.Fatalf("clean shutdown recorded %d lease expiries, want 0", got-base)
	}

	// Everything the drained store held is still readable.
	for name, want := range payloads {
		var rr segstore.ReadResult
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
