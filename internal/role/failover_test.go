package role

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/keyspace"
	"github.com/pravega-go/pravega/internal/segstore"
	"github.com/pravega-go/pravega/internal/wal"
)

// dynCluster builds a dynamic-ownership cluster with failover-friendly
// timings: the lease TTL bounds how long a wedged store's claims linger.
func dynCluster(t *testing.T, stores, perStore int, ttl time.Duration) *Cluster {
	t.Helper()
	return newCluster(t, ClusterConfig{
		Coord: CoordConfig{Stores: stores, Containers: perStore},
		Store: StoreConfig{LeaseTTL: ttl},
	})
}

// segForContainer finds a segment name that hashes to the given container.
func segForContainer(id, total int) string {
	for i := 0; ; i++ {
		name := fmt.Sprintf("f/s/%d-%d.#epoch.0", id, i)
		if keyspace.HashToContainer(name, total) == id {
			return name
		}
	}
}

// seedSegments creates one segment per container and appends events to each,
// returning the oracle of acked bytes per segment.
func seedSegments(t *testing.T, cl *Cluster, events int) map[string][]byte {
	t.Helper()
	oracle := make(map[string][]byte)
	for id := 0; id < cl.TotalContainers(); id++ {
		seg := segForContainer(id, cl.TotalContainers())
		if err := cl.coord.plane.CreateSegment(seg); err != nil {
			t.Fatalf("create %s: %v", seg, err)
		}
		for i := 0; i < events; i++ {
			data := []byte(fmt.Sprintf("c%d-ev%03d;", id, i))
			if _, err := containerFor(t, cl, seg).Append(seg, data, "w", int64(i+1), 1); err != nil {
				t.Fatalf("append %s: %v", seg, err)
			}
			oracle[seg] = append(oracle[seg], data...)
		}
	}
	return oracle
}

// verifyOracle reads every segment back through the retrying router and
// compares against the acked bytes.
func verifyOracle(t *testing.T, cl *Cluster, oracle map[string][]byte) {
	t.Helper()
	conn := cl.coord.plane
	for seg, want := range oracle {
		var got []byte
		for len(got) < len(want) {
			res, err := conn.Read(seg, int64(len(got)), len(want)-len(got), time.Second)
			if err != nil {
				t.Fatalf("read %s at %d: %v", seg, len(got), err)
			}
			if len(res.Data) == 0 {
				t.Fatalf("read %s stalled at %d of %d", seg, len(got), len(want))
			}
			got = append(got, res.Data...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: recovered bytes differ from acked bytes", seg)
		}
	}
}

// ownersByStore aggregates the live claim map by owning store.
func ownersByStore(t *testing.T, cl *Cluster) map[string][]int {
	t.Helper()
	claims, err := segstore.ClaimedContainers(cl.Meta())
	if err != nil {
		t.Fatalf("ClaimedContainers: %v", err)
	}
	out := make(map[string][]int)
	for id, owner := range claims {
		out[owner] = append(out[owner], id)
	}
	return out
}

// TestStoreCrashFailover is the tentpole's core scenario: a store crashes,
// survivors fence its WALs and re-acquire its containers, every acked byte
// survives, and writes resume against the new placement.
func TestStoreCrashFailover(t *testing.T) {
	cl := dynCluster(t, 3, 2, 2*time.Second)
	oracle := seedSegments(t, cl, 20)

	epochBefore := segstore.PlacementEpoch(cl.Meta())
	crashedID := cl.Stores()[0].ID()
	if err := cl.CrashStore(0); err != nil {
		t.Fatal(err)
	}
	if err := cl.AwaitConverged(10 * time.Second); err != nil {
		t.Fatalf("placement never converged after crash: %v", err)
	}
	claims, err := segstore.ClaimedContainers(cl.Meta())
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < cl.TotalContainers(); id++ {
		owner, ok := claims[id]
		if !ok {
			t.Fatalf("container %d unowned after convergence", id)
		}
		if owner == crashedID {
			t.Fatalf("container %d still assigned to crashed store %s", id, owner)
		}
	}
	if now := segstore.PlacementEpoch(cl.Meta()); now <= epochBefore {
		t.Fatalf("placement epoch did not advance across failover (%d -> %d)", epochBefore, now)
	}

	// Every byte acked before the crash must be readable from the new
	// owners (fence-and-replay recovery), and appends must resume.
	verifyOracle(t, cl, oracle)
	conn := cl.coord.plane
	for seg, want := range oracle {
		post := []byte("post-failover;")
		if _, err := conn.AppendConditional(seg, post, int64(len(want))); err != nil {
			t.Fatalf("append after failover on %s: %v", seg, err)
		}
		oracle[seg] = append(oracle[seg], post...)
	}
	verifyOracle(t, cl, oracle)
}

// TestWedgedStoreZombieFenced wedges a store (it keeps serving but stops
// renewing its lease): its claims expire, a survivor re-acquires and fences
// the WALs, and the zombie's subsequent appends fail rather than split-brain
// the segment.
func TestWedgedStoreZombieFenced(t *testing.T) {
	cl := dynCluster(t, 2, 2, 300*time.Millisecond)
	total := cl.TotalContainers()

	zombie, err := cl.WedgeStore(0)
	if err != nil {
		t.Fatal(err)
	}
	hosted := zombie.HostedContainers()
	if len(hosted) == 0 {
		t.Fatal("wedged store hosts nothing")
	}
	cid := hosted[0]
	seg := segForContainer(cid, total)
	zc, err := zombie.ContainerByID(cid)
	if err != nil {
		t.Fatal(err)
	}
	if err := zc.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for i := 0; i < 10; i++ {
		data := []byte(fmt.Sprintf("pre-wedge-%d;", i))
		if _, err := zc.Append(seg, data, "w", int64(i+1), 1); err != nil {
			t.Fatalf("append before expiry: %v", err)
		}
		want.Write(data)
	}

	// The lease expires (nothing renews it) and the survivor takes over. Its
	// claim comes before its recovery, and recovery is what fences the WAL,
	// so wait for the survivor to host the container, not just to claim it.
	survivor := cl.Stores()[1]
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := survivor.ContainerByID(cid); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("container %d never started on the survivor", cid)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The zombie still holds a container object, but its WAL is fenced: the
	// next append must fail, not silently land outside the owner's log.
	if _, err := zc.Append(seg, []byte("zombie"), "w", 99, 1); err == nil {
		t.Fatal("zombie append succeeded after the survivor fenced the WAL")
	} else if !errors.Is(err, wal.ErrFenced) && !errors.Is(err, segstore.ErrContainerDown) {
		t.Fatalf("zombie append error = %v, want fenced or container-down", err)
	}

	// Every byte the zombie acked before expiry was WAL-durable and must
	// survive into the new owner.
	verifyOracle(t, cl, map[string][]byte{seg: want.Bytes()})
}

// TestAddStoreRebalances grows a loaded cluster by one store: the assigner
// gracefully sheds containers onto it (drain + flush before release) and no
// acked data is lost in the handoff.
func TestAddStoreRebalances(t *testing.T) {
	cl := dynCluster(t, 2, 3, 2*time.Second)
	oracle := seedSegments(t, cl, 10)

	st, err := cl.AddStore()
	if err != nil {
		t.Fatal(err)
	}
	// 6 containers across 3 stores: each ends up with exactly 2.
	deadline := time.Now().Add(10 * time.Second)
	for {
		byStore := ownersByStore(t, cl)
		if len(byStore[st.ID()]) == 2 && len(byStore) == 3 {
			balanced := true
			for _, ids := range byStore {
				if len(ids) != 2 {
					balanced = false
				}
			}
			if balanced {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebalance never converged; claims: %v", byStore)
		}
		time.Sleep(10 * time.Millisecond)
	}
	verifyOracle(t, cl, oracle)
}

// TestOwnerOfTracksFailover pins the router's OwnerOf contract: it reports
// the live owner, and the answer moves when the owner crashes.
func TestOwnerOfTracksFailover(t *testing.T) {
	cl := dynCluster(t, 2, 2, 2*time.Second)
	seg := segForContainer(0, cl.TotalContainers())
	if err := cl.coord.plane.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	before, err := cl.coord.plane.OwnerOf(seg)
	if err != nil {
		t.Fatal(err)
	}
	var crashIdx = -1
	for i, st := range cl.Stores() {
		if st.ID() == before {
			crashIdx = i
		}
	}
	if crashIdx < 0 {
		t.Fatalf("OwnerOf returned unknown store %q", before)
	}
	if err := cl.CrashStore(crashIdx); err != nil {
		t.Fatal(err)
	}
	if err := cl.AwaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	after, err := cl.coord.plane.OwnerOf(seg)
	if err != nil {
		t.Fatalf("OwnerOf after failover: %v", err)
	}
	if after == before {
		t.Fatalf("OwnerOf still reports crashed store %q", after)
	}
}

// TestLoadByStoreSkipsCrashedStores pins LoadByStore: crashed stores drop
// out of the per-store load view instead of reporting stale rates.
func TestLoadByStoreSkipsCrashedStores(t *testing.T) {
	cl := dynCluster(t, 2, 2, 2*time.Second)
	seg := segForContainer(0, cl.TotalContainers())
	if err := cl.coord.plane.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	c := containerFor(t, cl, seg)
	for i := 0; i < 20; i++ {
		if _, err := c.Append(seg, bytes.Repeat([]byte("l"), 100), "w", int64(i+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(cl.LoadByStore()); got != 2 {
		t.Fatalf("LoadByStore covers %d stores, want 2", got)
	}
	if err := cl.CrashStore(0); err != nil {
		t.Fatal(err)
	}
	if err := cl.AwaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	loads := cl.LoadByStore()
	if len(loads) != 1 {
		t.Fatalf("LoadByStore after crash covers %d stores, want 1 (survivor only): %v", len(loads), loads)
	}
	if _, ok := loads[cl.Stores()[1].ID()]; !ok {
		t.Fatalf("survivor missing from LoadByStore: %v", loads)
	}
}
