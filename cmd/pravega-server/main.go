// Command pravega-server runs a Pravega node, serving the wire protocol on
// a TCP port. Three roles compose a deployment:
//
//   - all (default): the classic single-process node — controller, segment
//     stores, bookie ensemble and long-term storage behind one listener.
//   - coord: the coordination process — the cluster's coordination store
//     (sessions, ephemerals, watches served over the wire), the WAL bookie
//     ensemble, and the controller, which reaches segment stores remotely.
//   - store: one segment store that claims containers through the remote
//     coordination store and journals its WAL to the coord process's
//     bookies. Killing -9 a store process loses no acknowledged data:
//     survivors fence its ledgers and replay.
//
// Multi-process quick start (three stores on localhost):
//
//	pravega-server -role coord -listen :9090 -stores 3 -containers 4 &
//	pravega-server -role store -store-id store-0 -listen :9101 \
//	    -coord-addr localhost:9090 -lts-dir /tmp/pravega-lts &
//	pravega-server -role store -store-id store-1 -listen :9102 \
//	    -coord-addr localhost:9090 -lts-dir /tmp/pravega-lts &
//	pravega-server -role store -store-id store-2 -listen :9103 \
//	    -coord-addr localhost:9090 -lts-dir /tmp/pravega-lts &
//
// Store processes share the LTS directory (the paper's EFS model), so any
// store can serve any container's tiered data after a failover.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/pravega-go/pravega/internal/bookkeeper"
	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/controller"
	"github.com/pravega-go/pravega/internal/hosting"
	"github.com/pravega-go/pravega/internal/lts"
	"github.com/pravega-go/pravega/internal/obs"
	"github.com/pravega-go/pravega/internal/placement"
	"github.com/pravega-go/pravega/internal/segstore"
	"github.com/pravega-go/pravega/internal/wire"
	"github.com/pravega-go/pravega/pkg/pravega"
)

func main() {
	var (
		role       = flag.String("role", "all", "process role: all, coord, or store")
		listen     = flag.String("listen", ":9090", "address to serve the wire protocol on")
		advertise  = flag.String("advertise", "", "address other processes dial this one on (default: the bound listen address)")
		storeID    = flag.String("store-id", "", "store role: unique segment store id (required)")
		coordAddr  = flag.String("coord-addr", "", "store role: address of the coord process (required)")
		stores     = flag.Int("stores", 3, "segment store instances (all: in-process count; coord: expected store processes, sizes the container key space)")
		containers = flag.Int("containers", 4, "segment containers per store")
		bookies    = flag.Int("bookies", 3, "bookie instances")
		ltsDir     = flag.String("lts-dir", "", "directory for long-term storage (empty = in-memory; store role: required, shared across stores)")
		leaseTTL   = flag.Duration("lease-ttl", 3*time.Second, "store role: container claim lease TTL")
		rebalance  = flag.Duration("rebalance-interval", 50*time.Millisecond, "store role: ownership manager tick")
		policyMS   = flag.Int("policy-interval-ms", 2000, "auto-scaling/retention evaluation period (all/coord)")
		metrics    = flag.String("metrics", "", "address for the observability HTTP endpoint (/metrics, /debug/vars, /debug/pprof/, /debug/traces); empty = disabled")
		traceEvery = flag.Int("trace-sample", 0, "sample one append span per N appends into /debug/traces (0 = off)")
		drainTO    = flag.Duration("drain-timeout", 10*time.Second, "bound on the graceful drain after SIGINT/SIGTERM")
	)
	flag.Parse()
	// The append tracer is process-wide, so every role samples alike.
	obs.AppendTraces().SetSampleEvery(*traceEvery)

	switch *role {
	case "all":
		runAll(*listen, *stores, *containers, *bookies, *ltsDir, *policyMS, *metrics, *drainTO)
	case "coord":
		runCoord(*listen, *stores, *containers, *bookies, *policyMS, *metrics, *drainTO)
	case "store":
		runStore(*listen, *advertise, *storeID, *coordAddr, *ltsDir, *leaseTTL, *rebalance, *metrics, *drainTO)
	default:
		log.Fatalf("pravega-server: unknown -role %q (want all, coord or store)", *role)
	}
}

// serveMetrics starts the observability endpoint when addr is non-empty.
func serveMetrics(addr string) *obs.Server {
	if addr == "" {
		return nil
	}
	srv, err := obs.Serve(addr, obs.Default())
	if err != nil {
		log.Fatalf("pravega-server: metrics endpoint: %v", err)
	}
	fmt.Printf("pravega-server: metrics on http://%s/metrics\n", srv.Addr())
	return srv
}

// awaitSignal blocks until SIGINT/SIGTERM, then arms a second-signal
// immediate exit and returns.
func awaitSignal() {
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "pravega-server: second signal, exiting immediately")
		os.Exit(1)
	}()
}

// runAll is the classic single-process deployment.
func runAll(listen string, stores, containers, bookies int, ltsDir string, policyMS int, metrics string, drainTO time.Duration) {
	cfg := pravega.SystemConfig{
		Cluster: hosting.ClusterConfig{
			Stores:             stores,
			ContainersPerStore: containers,
			Bookies:            bookies,
		},
		PolicyInterval: time.Duration(policyMS) * time.Millisecond,
		MetricsAddr:    metrics,
	}
	if ltsDir != "" {
		fsStore, err := lts.NewFS(ltsDir)
		if err != nil {
			log.Fatalf("pravega-server: opening LTS directory: %v", err)
		}
		cfg.Cluster.LTS = fsStore
	}
	sys, err := pravega.NewInProcess(cfg)
	if err != nil {
		log.Fatalf("pravega-server: starting system: %v", err)
	}
	defer sys.Close()

	// The same placement router the coord role runs, with direct calls as the
	// per-store transport; clients learn placement from the same claim set.
	cl := sys.Cluster()
	srv, err := wire.NewServer(wire.ServerConfig{
		Data:      cl.Router(),
		Ctrl:      sys.Controller(),
		Coord:     cl.Meta,
		Placement: placement.CoordSource{Coord: cl.Meta, Total: cl.TotalContainers()},
		Load:      cl.Router().LoadReports,
	}, listen)
	if err != nil {
		log.Fatalf("pravega-server: listening: %v", err)
	}
	defer srv.Close()
	fmt.Printf("pravega-server: serving on %s (%d stores × %d containers, %d bookies)\n",
		srv.Addr(), stores, containers, bookies)
	if addr := sys.MetricsAddr(); addr != "" {
		fmt.Printf("pravega-server: metrics on http://%s/metrics\n", addr)
	}

	awaitSignal()
	fmt.Printf("pravega-server: draining (up to %v; signal again to exit immediately)\n", drainTO)

	// Stop accepting wire traffic, then drain what the stores already hold:
	// flush every open WAL segment and let the tiering engine finish moving
	// flushed data to LTS, bounded by -drain-timeout.
	if err := srv.Close(); err != nil {
		log.Printf("pravega-server: closing listener: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		if err := cl.FlushAll(); err != nil {
			done <- err
			return
		}
		done <- cl.WaitForTiering(drainTO)
	}()
	select {
	case err := <-done:
		if err != nil {
			log.Printf("pravega-server: drain incomplete: %v", err)
		} else {
			fmt.Println("pravega-server: drained, shutting down")
		}
	case <-time.After(drainTO):
		log.Printf("pravega-server: drain timed out after %v, shutting down", drainTO)
	}
}

// runCoord hosts the coordination store, the WAL bookie ensemble, and the
// controller. Segment data lives in store-role processes; the controller
// reaches them through the placement router with the wire transport.
func runCoord(listen string, stores, containers, bookies, policyMS int, metrics string, drainTO time.Duration) {
	meta := cluster.NewStore()
	total := stores * containers

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
	if err := wire.PublishClusterTopology(meta, wire.ClusterTopology{
		TotalContainers: total,
		Bookies:         bookieIDs,
		Replication:     repl,
	}); err != nil {
		log.Fatalf("pravega-server: publishing topology: %v", err)
	}

	source := placement.CoordSource{Coord: meta, Total: total}
	plane, err := placement.New(placement.Config{
		Source: source,
		Dial:   wire.StoreDialer(wire.ClientConfig{}),
	})
	if err != nil {
		log.Fatalf("pravega-server: starting router: %v", err)
	}
	defer plane.Close()
	ctrl, err := controller.New(controller.Config{Data: plane, Cluster: meta})
	if err != nil {
		log.Fatalf("pravega-server: starting controller: %v", err)
	}
	defer ctrl.Close()
	if policyMS > 0 {
		ctrl.StartPolicyLoops(time.Duration(policyMS) * time.Millisecond)
	}

	srv, err := wire.NewServer(wire.ServerConfig{
		Ctrl:      ctrl,
		Coord:     meta,
		Bookies:   bkNodes,
		Placement: source,
	}, listen)
	if err != nil {
		log.Fatalf("pravega-server: listening: %v", err)
	}
	defer srv.Close()
	if obsSrv := serveMetrics(metrics); obsSrv != nil {
		defer obsSrv.Close()
	}
	fmt.Printf("pravega-server: coord serving on %s (%d containers, %d bookies, expecting %d stores)\n",
		srv.Addr(), total, bookies, stores)

	awaitSignal()
	fmt.Println("pravega-server: coord shutting down")
}

// runStore hosts one segment store claiming containers through the remote
// coordination store. Its WAL entries journal to the coord process's
// bookies, so a SIGKILL here loses nothing acknowledged.
func runStore(listen, advertise, storeID, coordAddr, ltsDir string, leaseTTL, rebalance time.Duration, metrics string, drainTO time.Duration) {
	if storeID == "" {
		log.Fatal("pravega-server: -role store requires -store-id")
	}
	if coordAddr == "" {
		log.Fatal("pravega-server: -role store requires -coord-addr")
	}
	if ltsDir == "" {
		log.Fatal("pravega-server: -role store requires -lts-dir (shared across stores for failover)")
	}

	rs, err := wire.DialCoordRetry(coordAddr, wire.ClientConfig{}, 30*time.Second)
	if err != nil {
		log.Fatalf("pravega-server: dialing coord: %v", err)
	}
	defer rs.Close()
	topo, err := wire.FetchClusterTopology(rs, 10*time.Second)
	if err != nil {
		log.Fatalf("pravega-server: fetching topology: %v", err)
	}

	bk, err := bookkeeper.NewClient(bookkeeper.ClientConfig{Meta: rs})
	if err != nil {
		log.Fatalf("pravega-server: bookkeeper client: %v", err)
	}
	for _, id := range topo.Bookies {
		bk.RegisterBookie(wire.NewRemoteBookie(id, rs))
	}
	fsStore, err := lts.NewFS(ltsDir)
	if err != nil {
		log.Fatalf("pravega-server: opening LTS directory: %v", err)
	}

	st, err := segstore.NewStore(segstore.StoreConfig{
		ID:              storeID,
		TotalContainers: topo.TotalContainers,
		Container: segstore.ContainerConfig{
			BK:          bk,
			Meta:        rs,
			Replication: topo.Replication,
			LTS:         fsStore,
		},
		Cluster:  rs,
		LeaseTTL: leaseTTL,
	})
	if err != nil {
		log.Fatalf("pravega-server: starting store: %v", err)
	}

	srv, err := wire.NewServer(wire.ServerConfig{
		Data: placement.Local{St: st},
		Load: st.LoadReport,
	}, listen)
	if err != nil {
		log.Fatalf("pravega-server: listening: %v", err)
	}
	defer srv.Close()
	if advertise == "" {
		advertise = srv.Addr()
	}

	mgr, err := segstore.StartOwnershipManager(st, segstore.OwnershipConfig{
		RebalanceInterval: rebalance,
		AdvertiseAddr:     advertise,
	})
	if err != nil {
		log.Fatalf("pravega-server: registering store: %v", err)
	}
	mgr.Run()
	if obsSrv := serveMetrics(metrics); obsSrv != nil {
		defer obsSrv.Close()
	}
	fmt.Printf("pravega-server: store %s serving on %s (advertised %s)\n", storeID, srv.Addr(), advertise)

	// Exit when the store dies on its own (lease lost past TTL → the
	// ownership manager crashes it) so a supervisor can restart the process.
	died := make(chan struct{})
	go func() {
		t := time.NewTicker(200 * time.Millisecond)
		defer t.Stop()
		for range t.C {
			if st.Closed() {
				close(died)
				return
			}
		}
	}()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
	case <-died:
		log.Fatalf("pravega-server: store %s lost its session (lease expired); exiting for restart", storeID)
	}
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "pravega-server: second signal, exiting immediately")
		os.Exit(1)
	}()

	// Graceful shutdown: stop accepting traffic, then drain — every hosted
	// container flushes, releases its claim, and bumps the placement epoch,
	// so survivors take over WITHOUT waiting out the lease TTL.
	fmt.Printf("pravega-server: store %s draining (up to %v)\n", storeID, drainTO)
	if err := srv.Close(); err != nil {
		log.Printf("pravega-server: closing listener: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- st.Drain() }()
	select {
	case err := <-done:
		if err != nil {
			log.Printf("pravega-server: drain incomplete: %v", err)
		} else {
			fmt.Printf("pravega-server: store %s drained, shutting down\n", storeID)
		}
	case <-time.After(drainTO):
		log.Printf("pravega-server: drain timed out after %v, shutting down", drainTO)
	}
}
