package role

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/keyspace"
	"github.com/pravega-go/pravega/internal/lts"
	"github.com/pravega-go/pravega/internal/segstore"
	"github.com/pravega-go/pravega/internal/sim"
)

// newCluster starts an in-process cluster on an unshaped in-memory network.
func newCluster(tb testing.TB, cfg ClusterConfig) *Cluster {
	tb.Helper()
	cl, err := StartCluster(SimNet(sim.NewNet(), sim.LinkConfig{}), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(cl.Close)
	return cl
}

// containerFor finds the container hosting name's container right now.
func containerFor(tb testing.TB, cl *Cluster, name string) *segstore.Container {
	tb.Helper()
	for _, st := range cl.Stores() {
		if c, err := st.Container(name); err == nil && !st.Closed() {
			return c
		}
	}
	tb.Fatalf("no store hosts the container of %s", name)
	return nil
}

func TestClusterRoutesBySegmentHash(t *testing.T) {
	cl := newCluster(t, ClusterConfig{Coord: CoordConfig{Stores: 3, Containers: 2}})
	if cl.TotalContainers() != 6 {
		t.Fatalf("TotalContainers = %d", cl.TotalContainers())
	}
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("s/x/%d.#epoch.0", i)
		owner, err := cl.coord.plane.OwnerOf(name)
		if err != nil {
			t.Fatal(err)
		}
		want := keyspace.HashToContainer(name, 6)
		found := false
		for _, st := range cl.Stores() {
			if st.ID() != owner {
				continue
			}
			for _, id := range st.HostedContainers() {
				if id == want {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("segment %s routed to store %s without container %d", name, owner, want)
		}
	}
}

func TestClusterDataPlaneOps(t *testing.T) {
	cl := newCluster(t, ClusterConfig{Coord: CoordConfig{Stores: 2, Containers: 2}})
	const seg = "s/x/7.#epoch.0"
	r := cl.coord.plane
	if err := r.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	if _, err := containerFor(t, cl, seg).Append(seg, []byte("abc"), "w", 1, 1); err != nil {
		t.Fatal(err)
	}
	info, err := r.GetInfo(seg)
	if err != nil || info.Length != 3 {
		t.Fatalf("info = %+v, %v", info, err)
	}
	owner, err := r.OwnerOf(seg)
	if err != nil || owner == "" {
		t.Fatalf("OwnerOf = %q, %v", owner, err)
	}
	if n, err := r.SealSegment(seg); err != nil || n != 3 {
		t.Fatalf("Seal = %d, %v", n, err)
	}
	if err := r.TruncateSegment(seg, 3); err != nil {
		t.Fatal(err)
	}
	if err := r.DeleteSegment(seg); err != nil {
		t.Fatal(err)
	}
}

func TestStoreCrashContainerReassignment(t *testing.T) {
	cl := newCluster(t, ClusterConfig{Coord: CoordConfig{Stores: 2, Containers: 1}})
	// Write into a segment owned by store 0's container (id 0).
	var seg string
	for i := 0; ; i++ {
		seg = fmt.Sprintf("s/x/%d.#epoch.0", i)
		if keyspace.HashToContainer(seg, 2) == 0 {
			break
		}
	}
	c0, err := cl.stores[0].st.ContainerByID(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c0.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for i := 0; i < 10; i++ {
		data := []byte(fmt.Sprintf("crash-%d;", i))
		if _, err := c0.Append(seg, data, "w", int64(i), 1); err != nil {
			t.Fatal(err)
		}
		want.Write(data)
	}
	// Store 0 crashes; its ephemeral claim disappears.
	cl.stores[0].st.Crash()
	if claims, _ := segstore.ClaimedContainers(cl.Meta()); claims[0] == "segmentstore-0" {
		t.Fatal("claim survived the crash")
	}
	// The assigner gives the container to store 1; recovery replays the WAL.
	if err := cl.AwaitConverged(10 * time.Second); err != nil {
		t.Fatalf("takeover: %v", err)
	}
	c := containerFor(t, cl, seg)
	info, err := c.GetInfo(seg)
	if err != nil || info.Length != int64(want.Len()) {
		t.Fatalf("recovered info = %+v, %v", info, err)
	}
	res, err := c.Read(seg, 0, want.Len(), time.Second)
	if err != nil || !bytes.Equal(res.Data, want.Bytes()) {
		t.Fatalf("recovered read mismatch (%d bytes, %v)", len(res.Data), err)
	}
	if claims, err := segstore.ClaimedContainers(cl.Meta()); err != nil || claims[0] != "segmentstore-1" {
		t.Fatalf("claims = %v, %v; want container 0 on segmentstore-1", claims, err)
	}
}

func TestDoubleClaimRejected(t *testing.T) {
	cl := newCluster(t, ClusterConfig{Coord: CoordConfig{Stores: 2, Containers: 1}})
	// Container 0 is already owned by store 0.
	if _, err := cl.stores[1].st.StartContainer(0); err == nil {
		t.Fatal("second claim for a live container succeeded")
	}
}

func TestLTSOutageThrottlesAndRecovers(t *testing.T) {
	simLTS := lts.NewSim(lts.NewMemory(), sim.ObjectStoreConfig{})
	cl := newCluster(t, ClusterConfig{
		Coord: CoordConfig{Stores: 1, Containers: 1},
		Store: StoreConfig{LTS: simLTS, Container: segstore.ContainerConfig{
			MaxUnflushedBytes: 8 << 10, // throttle quickly
			FlushSizeBytes:    1 << 10,
			FlushInterval:     20 * time.Millisecond,
		}},
	})
	const seg = "s/x/0.#epoch.0"
	if err := cl.coord.plane.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	c := containerFor(t, cl, seg)

	simLTS.SetUnavailable(true)
	payload := bytes.Repeat([]byte("t"), 1024)
	// Writes beyond the un-tiered limit must block (integrated-tiering
	// backpressure, §4.3); run them with a timeout watchdog.
	done := make(chan int, 1)
	go func() {
		n := 0
		for i := 0; i < 64; i++ {
			if _, err := c.Append(seg, payload, "w", int64(i), 1); err != nil {
				break
			}
			n++
		}
		done <- n
	}()
	select {
	case n := <-done:
		t.Fatalf("writer was never throttled during LTS outage (%d appends)", n)
	case <-time.After(500 * time.Millisecond):
		// Expected: the writer is stuck in the throttle.
	}
	if c.Stats().ThrottleWaits == 0 {
		t.Fatal("throttle waits not recorded")
	}
	// A tiering wait that times out during the outage names its cause.
	if err := cl.WaitForTiering(50 * time.Millisecond); !errors.Is(err, lts.ErrUnavailable) {
		t.Fatalf("WaitForTiering during the outage = %v, want an error wrapping lts.ErrUnavailable", err)
	}
	// LTS recovers: the backlog drains and the writer completes.
	simLTS.SetUnavailable(false)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("writer still stuck after LTS recovery")
	}
	if err := cl.WaitForTiering(10 * time.Second); err != nil {
		t.Fatalf("backlog never drained after recovery: %v", err)
	}
}

func TestBookieCrashClusterKeepsWorking(t *testing.T) {
	cl := newCluster(t, ClusterConfig{Coord: CoordConfig{Stores: 1, Containers: 1}})
	const seg = "s/x/0.#epoch.0"
	if err := cl.coord.plane.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	c := containerFor(t, cl, seg)
	if _, err := c.Append(seg, []byte("before"), "w", 1, 1); err != nil {
		t.Fatal(err)
	}
	// One bookie down: ackQuorum 2 of 3 still satisfiable.
	cl.Bookies()[0].Close()
	if _, err := c.Append(seg, []byte("after"), "w", 2, 1); err != nil {
		t.Fatalf("append with one bookie down: %v", err)
	}
	res, err := c.Read(seg, 0, 64, time.Second)
	if err != nil || len(res.Data) != len("before")+len("after") {
		t.Fatalf("read = %d bytes, %v", len(res.Data), err)
	}
}

func TestLoadByStoreAggregates(t *testing.T) {
	cl := newCluster(t, ClusterConfig{Coord: CoordConfig{Stores: 2, Containers: 1}})
	const seg = "s/x/1.#epoch.0"
	if err := cl.coord.plane.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	c := containerFor(t, cl, seg)
	for i := 0; i < 50; i++ {
		if _, err := c.Append(seg, bytes.Repeat([]byte("l"), 100), "w", int64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	loads := cl.LoadByStore()
	if len(loads) != 2 {
		t.Fatalf("LoadByStore returned %d stores", len(loads))
	}
	var total float64
	for _, v := range loads {
		total += v
	}
	if total <= 0 {
		t.Fatal("no load reported after 50 appends")
	}
}
