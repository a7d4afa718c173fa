// Package role builds each pravega-server process role exactly once (§2.2:
// a controller and segment stores over a ZooKeeper-like coordination store,
// with bookies for the WAL):
//
//   - StartCoord: the coordination store, the container assigner, the WAL
//     bookie ensemble and the controller, which reaches the store processes
//     through the placement router over the wire.
//   - StartStore: one segment store that follows the assignment through the
//     remote coordination store and journals to the coord's bookies.
//   - StartAll: an in-process cluster and its controller behind one
//     all-planes server (Serve). cmd/pravega-server -role all runs it on
//     TCP, pravega.NewInProcess on an internal/sim listener.
//
// cmd/pravega-server parses its flags into these configs, and the
// multi-process tests start the same roles inside one test process.
package role

import (
	"fmt"
	"net"
	"time"

	"github.com/pravega-go/pravega/internal/bookkeeper"
	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/controller"
	"github.com/pravega-go/pravega/internal/hosting"
	"github.com/pravega-go/pravega/internal/lts"
	"github.com/pravega-go/pravega/internal/placement"
	"github.com/pravega-go/pravega/internal/segstore"
	"github.com/pravega-go/pravega/internal/wire"
)

// CoordConfig configures the coord role; each field is one pravega-server
// flag.
type CoordConfig struct {
	Listen         string        // -listen
	Stores         int           // -stores: expected store processes
	Containers     int           // -containers: per store
	Bookies        int           // -bookies
	PolicyInterval time.Duration // -policy-interval-ms; 0 = no policy loops
}

// Coord is a running coord role.
type Coord struct {
	meta     *cluster.Store
	assigner *segstore.Assigner
	plane    *placement.Router
	ctrl     *controller.Controller
	srv      *wire.Server
}

// StartCoord publishes the cluster topology — the container count, the
// bookie ids and a replication config clamped to the ensemble — starts the
// assigner and serves the coordination store, bookies and controller.
func StartCoord(cfg CoordConfig) (*Coord, error) {
	meta := cluster.NewStore()
	total := cfg.Stores * cfg.Containers

	bkNodes := make(map[string]bookkeeper.Node, cfg.Bookies)
	bookieIDs := make([]string, 0, cfg.Bookies)
	for i := 0; i < cfg.Bookies; i++ {
		id := fmt.Sprintf("bookie-%d", i)
		bkNodes[id] = bookkeeper.NewBookie(bookkeeper.BookieConfig{ID: id})
		bookieIDs = append(bookieIDs, id)
	}
	repl := bookkeeper.DefaultReplication()
	if cfg.Bookies < repl.Ensemble {
		repl = bookkeeper.ReplicationConfig{Ensemble: cfg.Bookies, WriteQuorum: cfg.Bookies, AckQuorum: (cfg.Bookies + 1) / 2}
	}
	if err := wire.PublishClusterTopology(meta, wire.ClusterTopology{
		TotalContainers: total,
		Bookies:         bookieIDs,
		Replication:     repl,
	}); err != nil {
		return nil, fmt.Errorf("publishing topology: %w", err)
	}

	assigner, err := segstore.StartAssigner(meta, total)
	if err != nil {
		return nil, fmt.Errorf("starting assigner: %w", err)
	}
	source := placement.CoordSource{Coord: meta, Total: total}
	plane, err := placement.New(placement.Config{
		Source: source,
		Dial:   wire.StoreDialer(wire.ClientConfig{}),
	})
	if err != nil {
		assigner.Close()
		return nil, fmt.Errorf("starting router: %w", err)
	}
	c := &Coord{meta: meta, assigner: assigner, plane: plane}
	if c.ctrl, err = controller.New(controller.Config{Data: plane, Cluster: meta}); err != nil {
		c.Close()
		return nil, fmt.Errorf("starting controller: %w", err)
	}
	if cfg.PolicyInterval > 0 {
		c.ctrl.StartPolicyLoops(cfg.PolicyInterval)
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("listening: %w", err)
	}
	c.srv = wire.NewServer(wire.ServerConfig{
		Ctrl:      c.ctrl,
		Coord:     meta,
		Bookies:   bkNodes,
		Placement: source,
	}, ln)
	return c, nil
}

// Addr is the bound listen address.
func (c *Coord) Addr() string { return c.srv.Addr() }

// Close stops the listener, the policy loops, the router and the assigner.
func (c *Coord) Close() {
	if c.srv != nil {
		_ = c.srv.Close()
	}
	if c.ctrl != nil {
		c.ctrl.Close()
	}
	_ = c.plane.Close()
	c.assigner.Close()
}

// StoreConfig configures the store role; each field is one pravega-server
// flag.
type StoreConfig struct {
	ID        string        // -store-id
	Listen    string        // -listen
	Advertise string        // -advertise; empty = the bound listen address
	CoordAddr string        // -coord-addr
	LTSDir    string        // -lts-dir, shared by every store
	LeaseTTL  time.Duration // -lease-ttl
}

// Store is a running store role.
type Store struct {
	advertise string
	rs        *wire.RemoteStore
	st        *segstore.Store
	srv       *wire.Server
}

// StartStore dials the coord (retrying for 30 s, so a store may boot before
// its coord), reads the topology it published, and serves one segment
// store whose WAL journals to the coord's bookies. The ownership manager
// starts last, once the listener it advertises is up.
func StartStore(cfg StoreConfig) (*Store, error) {
	rs, err := wire.DialCoordRetry(cfg.CoordAddr, wire.ClientConfig{}, 30*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dialing coord: %w", err)
	}
	s := &Store{rs: rs}
	if err := s.start(cfg); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

func (s *Store) start(cfg StoreConfig) error {
	topo, err := wire.FetchClusterTopology(s.rs, 10*time.Second)
	if err != nil {
		return fmt.Errorf("fetching topology: %w", err)
	}
	bk, err := bookkeeper.NewClient(bookkeeper.ClientConfig{Meta: s.rs})
	if err != nil {
		return fmt.Errorf("bookkeeper client: %w", err)
	}
	for _, id := range topo.Bookies {
		bk.RegisterBookie(wire.NewRemoteBookie(id, s.rs))
	}
	fsStore, err := lts.NewFS(cfg.LTSDir)
	if err != nil {
		return fmt.Errorf("opening LTS directory: %w", err)
	}
	if s.st, err = segstore.NewStore(segstore.StoreConfig{
		ID:              cfg.ID,
		TotalContainers: topo.TotalContainers,
		Container: segstore.ContainerConfig{
			BK:          bk,
			Meta:        s.rs,
			Replication: topo.Replication,
			LTS:         fsStore,
		},
		Cluster:  s.rs,
		LeaseTTL: cfg.LeaseTTL,
	}); err != nil {
		return fmt.Errorf("starting store: %w", err)
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return fmt.Errorf("listening: %w", err)
	}
	s.srv = wire.NewServer(wire.ServerConfig{
		Data: placement.Local{St: s.st},
		Load: s.st.LoadReport,
	}, ln)
	s.advertise = cfg.Advertise
	if s.advertise == "" {
		s.advertise = s.srv.Addr()
	}
	if _, err := segstore.StartOwnershipManager(s.st, s.advertise); err != nil {
		return fmt.Errorf("registering store: %w", err)
	}
	return nil
}

// Addr is the bound listen address.
func (s *Store) Addr() string { return s.srv.Addr() }

// Advertised is the address registered for clients and the controller.
func (s *Store) Advertised() string { return s.advertise }

// Done is closed once the store stops: by Drain, Crash or Close, or on its
// own when its lease lapsed and the ownership manager crashed it.
func (s *Store) Done() <-chan struct{} { return s.st.Done() }

// Drain is the SIGTERM path: stop accepting traffic, then hand every
// container off — flush, release the claim, bump the placement epoch — so
// survivors take over without waiting out the lease TTL.
func (s *Store) Drain() error {
	_ = s.srv.Close()
	return s.st.Drain()
}

// Crash is a process death as the rest of the cluster sees it: the
// listener goes and the store stops without flushing; its claims drop with
// its session.
func (s *Store) Crash() {
	_ = s.srv.Close()
	s.st.Crash()
}

// Close stops the listener and the store and drops the coord connection.
// It is safe after Drain or Crash.
func (s *Store) Close() {
	if s.srv != nil {
		_ = s.srv.Close()
	}
	if s.st != nil {
		_ = s.st.Close()
	}
	s.rs.Close()
}

// All is a running all-planes role.
type All struct {
	Cluster *hosting.Cluster
	Ctrl    *controller.Controller
	Srv     *wire.Server
}

// StartAll starts an in-process cluster and its controller (ctrl.Data and
// ctrl.Cluster are filled in; policy > 0 starts its policy loops at that
// period) and serves them on ln, which it owns from here on.
func StartAll(ln net.Listener, ccfg hosting.ClusterConfig, ctrl controller.Config, policy time.Duration) (*All, error) {
	cl, err := hosting.NewCluster(ccfg)
	if err != nil {
		_ = ln.Close()
		return nil, err
	}
	ctrl.Data, ctrl.Cluster = cl.Router(), cl.Meta
	a := &All{Cluster: cl}
	if a.Ctrl, err = controller.New(ctrl); err != nil {
		_ = ln.Close()
		cl.Close()
		return nil, err
	}
	if policy > 0 {
		a.Ctrl.StartPolicyLoops(policy)
	}
	a.Srv = Serve(cl, a.Ctrl, ln)
	return a, nil
}

// Close stops the server, the controller and the cluster, in that order.
func (a *All) Close() {
	_ = a.Srv.Close()
	a.Ctrl.Close()
	a.Cluster.Close()
}

// Serve fronts an in-process cluster and its controller with one wire
// server on ln exposing every plane: data through the cluster's placement
// router, control, coordination and placement snapshots.
func Serve(cl *hosting.Cluster, ctrl *controller.Controller, ln net.Listener) *wire.Server {
	return wire.NewServer(wire.ServerConfig{
		Data:      cl.Router(),
		Ctrl:      ctrl,
		Coord:     cl.Meta,
		Placement: placement.CoordSource{Coord: cl.Meta, Total: cl.TotalContainers()},
		Load:      cl.Router().LoadReports,
	}, ln)
}
