// Command pravega-server runs a Pravega node, serving the wire protocol on
// TCP. Two roles compose a deployment, each built by internal/role, and a
// third runs both in one process:
//
//   - all (default): a coord on -listen plus -stores stores in this
//     process, each store on a port of its own on the same host; clients
//     bootstrap from -listen and reach the stores directly.
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
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/pravega-go/pravega/internal/lts"
	"github.com/pravega-go/pravega/internal/obs"
	"github.com/pravega-go/pravega/internal/role"
	"github.com/pravega-go/pravega/internal/wire"
)

func main() {
	var (
		which      = flag.String("role", "all", "process role: all, coord, or store")
		listen     = flag.String("listen", ":9090", "address to serve the wire protocol on")
		advertise  = flag.String("advertise", "", "address other processes dial this one on (default: the bound listen address)")
		storeID    = flag.String("store-id", "", "store role: unique segment store id (required)")
		coordAddr  = flag.String("coord-addr", "", "store role: address of the coord process (required)")
		stores     = flag.Int("stores", 3, "segment stores (all: started in this process; coord: expected store processes, sizes the container key space)")
		containers = flag.Int("containers", 4, "segment containers per store")
		bookies    = flag.Int("bookies", 3, "bookie instances")
		ltsDir     = flag.String("lts-dir", "", "directory for long-term storage (empty = in-memory; store role: required, shared across stores)")
		leaseTTL   = flag.Duration("lease-ttl", 3*time.Second, "store/all: container claim lease TTL")
		policyMS   = flag.Int("policy-interval-ms", 2000, "auto-scaling/retention evaluation period (all/coord)")
		metrics    = flag.String("metrics", "", "address for the observability HTTP endpoint (/metrics, /debug/vars, /debug/pprof/, /debug/traces); empty = disabled")
		traceEvery = flag.Int("trace-sample", 0, "sample one append span per N appends into /debug/traces (0 = off)")
		drainTO    = flag.Duration("drain-timeout", 10*time.Second, "bound on the graceful drain after SIGINT/SIGTERM")
	)
	flag.Parse()
	// The append tracer is process-wide, so every role samples alike.
	obs.AppendTraces().SetSampleEvery(*traceEvery)
	policy := time.Duration(*policyMS) * time.Millisecond

	switch *which {
	case "all":
		cfg := role.ClusterConfig{
			Coord: role.CoordConfig{Stores: *stores, Containers: *containers, Bookies: *bookies, PolicyInterval: policy},
			Store: role.StoreConfig{LeaseTTL: *leaseTTL},
		}
		if *ltsDir != "" {
			cfg.Store.LTS = openLTS(*ltsDir)
		}
		cl, err := role.StartCluster(role.TCPNet(*listen), cfg)
		if err != nil {
			log.Fatalf("pravega-server: starting system: %v", err)
		}
		defer cl.Close()
		fmt.Printf("pravega-server: serving on %s (%d stores × %d containers, %d bookies)\n",
			cl.Addr(), *stores, *containers, *bookies)
		defer serveMetrics(*metrics)()
		// No drain: the coordination store and the bookies live in this
		// process's memory, so nothing a flush to LTS saves outlives it.
		awaitSignal(nil)
		fmt.Println("pravega-server: shutting down")
	case "coord":
		c, err := role.StartCoord(listenTCP(*listen), wire.DialTCP, role.CoordConfig{
			Stores: *stores, Containers: *containers, Bookies: *bookies, PolicyInterval: policy,
		})
		if err != nil {
			log.Fatalf("pravega-server: %v", err)
		}
		defer c.Close()
		defer serveMetrics(*metrics)()
		fmt.Printf("pravega-server: coord serving on %s (%d containers, %d bookies, expecting %d stores)\n",
			c.Addr(), *stores**containers, *bookies, *stores)
		awaitSignal(nil)
		fmt.Println("pravega-server: coord shutting down")
	case "store":
		switch {
		case *storeID == "":
			log.Fatal("pravega-server: -role store requires -store-id")
		case *coordAddr == "":
			log.Fatal("pravega-server: -role store requires -coord-addr")
		case *ltsDir == "":
			log.Fatal("pravega-server: -role store requires -lts-dir (shared across stores for failover)")
		}
		s, err := role.StartStore(listenTCP(*listen), wire.DialTCP, role.StoreConfig{
			ID: *storeID, Advertise: *advertise, CoordAddr: *coordAddr,
			LTS: openLTS(*ltsDir), LeaseTTL: *leaseTTL,
		})
		if err != nil {
			log.Fatalf("pravega-server: %v", err)
		}
		defer serveMetrics(*metrics)() // no s.Close: it could block where a timed-out drain did
		fmt.Printf("pravega-server: store %s serving on %s (advertised %s)\n", *storeID, s.Addr(), s.Advertised())
		// A store whose lease lapsed crashed itself: exit for the supervisor.
		if !awaitSignal(s.Done()) {
			log.Fatalf("pravega-server: store %s lost its session (lease expired); exiting for restart", *storeID)
		}
		fmt.Printf("pravega-server: store %s draining (up to %v)\n", *storeID, *drainTO)
		drain(*drainTO, fmt.Sprintf("pravega-server: store %s drained, shutting down", *storeID), s.Drain)
	default:
		log.Fatalf("pravega-server: unknown -role %q (want all, coord or store)", *which)
	}
}

// listenTCP opens the role's listener or exits.
func listenTCP(addr string) net.Listener {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("pravega-server: listening: %v", err)
	}
	return ln
}

// openLTS opens the shared LTS directory or exits.
func openLTS(dir string) lts.ChunkStorage {
	fsStore, err := lts.NewFS(dir)
	if err != nil {
		log.Fatalf("pravega-server: opening LTS directory: %v", err)
	}
	return fsStore
}

// serveMetrics starts the observability endpoint unless addr is empty.
func serveMetrics(addr string) func() {
	if addr == "" {
		return func() {}
	}
	srv, err := obs.Serve(addr, obs.Default())
	if err != nil {
		log.Fatalf("pravega-server: metrics endpoint: %v", err)
	}
	fmt.Printf("pravega-server: metrics on http://%s/metrics\n", srv.Addr())
	return func() { _ = srv.Close() }
}

// awaitSignal waits for SIGINT/SIGTERM (true, arming a second-signal exit)
// or for died to close (false).
func awaitSignal(died <-chan struct{}) bool {
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
	case <-died:
		return false
	}
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "pravega-server: second signal, exiting immediately")
		os.Exit(1)
	}()
	return true
}

// drain runs fn bounded by timeout and reports how it ended.
func drain(timeout time.Duration, drained string, fn func() error) {
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			log.Printf("pravega-server: drain incomplete: %v", err)
		} else {
			fmt.Println(drained)
		}
	case <-time.After(timeout):
		log.Printf("pravega-server: drain timed out after %v, shutting down", timeout)
	}
}
