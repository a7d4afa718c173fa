// Package role builds each pravega-server role exactly once (§2.2: a
// controller and segment stores over a ZooKeeper-like coordination store,
// with bookies for the WAL):
//
//   - StartCoord: the coordination store, the container assigner, the WAL
//     bookie ensemble and the controller, which reaches the stores through
//     the placement router over the wire.
//   - StartStore: one segment store that follows the assignment through the
//     remote coordination store and journals to the coord's bookies.
//
// Both take the listener they serve on and the dialer they reach the other
// role with, so one constructor serves every deployment: TCP for the
// pravega-server processes, an in-memory internal/sim address space in
// process. A Cluster is one coord and N stores in one process; it backs
// pravega.NewInProcess, pravega-server -role all, the figures and the
// fault-injection rigs.
package role

import (
	"fmt"
	"net"
	"time"

	"github.com/pravega-go/pravega/internal/bookkeeper"
	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/controller"
	"github.com/pravega-go/pravega/internal/lts"
	"github.com/pravega-go/pravega/internal/placement"
	"github.com/pravega-go/pravega/internal/segstore"
	"github.com/pravega-go/pravega/internal/sim"
	"github.com/pravega-go/pravega/internal/wire"
)

// CoordConfig configures the coord role. The first four fields are
// pravega-server flags; the rest are set in process.
type CoordConfig struct {
	Stores         int           // -stores: expected stores
	Containers     int           // -containers: per store
	Bookies        int           // -bookies
	PolicyInterval time.Duration // -policy-interval-ms; 0 = no policy loops
	// ScaleCooldown is the controller's per-stream hysteresis between
	// scale events.
	ScaleCooldown time.Duration
	// Journal, when set, gives each bookie a modelled drive of its own to
	// journal to; nil journals to memory.
	Journal *sim.DiskConfig
	// NoSyncJournal disables journal fsyncs ("Pravega no flush", §5.2).
	NoSyncJournal bool
	// DiscardData keeps only entry sizes in the bookies (benchmark memory
	// bound).
	DiscardData bool
}

// Coord is a running coord role.
type Coord struct {
	meta     *cluster.Store
	bookies  []*bookkeeper.Bookie
	disks    []*sim.Disk
	assigner *segstore.Assigner
	plane    *placement.Router
	ctrl     *controller.Controller
	srv      *wire.Server
}

// StartCoord publishes the cluster topology — the container count, the
// bookie ids and a replication config clamped to the ensemble — starts the
// assigner and serves the coordination store, bookies and controller on
// ln, which it owns from here on. The controller reaches the stores through
// dial.
func StartCoord(ln net.Listener, dial wire.Dialer, cfg CoordConfig) (*Coord, error) {
	c, err := startCoord(ln, dial, cfg)
	if err == nil {
		err = c.startAssigner(cfg.Stores * cfg.Containers)
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// startCoord is StartCoord without the assigner: a Cluster starts it once
// its first stores are registered, so each container is placed once
// instead of handed on as the stores join. On error, the returned Coord
// holds what was started, for Close.
func startCoord(ln net.Listener, dial wire.Dialer, cfg CoordConfig) (*Coord, error) {
	c := &Coord{meta: cluster.NewStore()}
	total := cfg.Stores * cfg.Containers
	bkNodes := make(map[string]bookkeeper.Node, cfg.Bookies)
	bookieIDs := make([]string, 0, cfg.Bookies)
	for i := 0; i < cfg.Bookies; i++ {
		bcfg := bookkeeper.BookieConfig{
			ID:          fmt.Sprintf("bookie-%d", i),
			NoSync:      cfg.NoSyncJournal,
			DiscardData: cfg.DiscardData,
		}
		if cfg.Journal != nil {
			d := sim.NewDisk(*cfg.Journal)
			c.disks = append(c.disks, d)
			bcfg.Journal = d.OpenFile("journal")
		}
		b := bookkeeper.NewBookie(bcfg)
		c.bookies = append(c.bookies, b)
		bkNodes[bcfg.ID] = b
		bookieIDs = append(bookieIDs, bcfg.ID)
	}
	repl := bookkeeper.DefaultReplication()
	if cfg.Bookies < repl.Ensemble {
		repl = bookkeeper.ReplicationConfig{Ensemble: cfg.Bookies, WriteQuorum: cfg.Bookies, AckQuorum: (cfg.Bookies + 1) / 2}
	}
	fail := func(what string, err error) (*Coord, error) {
		_ = ln.Close()
		return c, fmt.Errorf("%s: %w", what, err)
	}
	if err := wire.PublishClusterTopology(c.meta, wire.ClusterTopology{
		TotalContainers: total,
		Bookies:         bookieIDs,
		Replication:     repl,
	}); err != nil {
		return fail("publishing topology", err)
	}
	if err := segstore.CreatePlacementRoots(c.meta); err != nil {
		return fail("creating placement roots", err)
	}
	source := placement.CoordSource{Coord: c.meta, Total: total}
	var err error
	if c.plane, err = placement.New(placement.Config{
		Source: source,
		Dial:   wire.StoreDialer(dial, wire.ClientConfig{}),
	}); err != nil {
		return fail("starting router", err)
	}
	if c.ctrl, err = controller.New(controller.Config{Data: c.plane, Cluster: c.meta, ScaleCooldown: cfg.ScaleCooldown}); err != nil {
		return fail("starting controller", err)
	}
	if cfg.PolicyInterval > 0 {
		c.ctrl.StartPolicyLoops(cfg.PolicyInterval)
	}
	c.srv = wire.NewServer(wire.ServerConfig{
		Ctrl:      c.ctrl,
		Coord:     c.meta,
		Bookies:   bkNodes,
		Placement: source,
	}, ln)
	return c, nil
}

func (c *Coord) startAssigner(total int) (err error) {
	if c.assigner, err = segstore.StartAssigner(c.meta, total); err != nil {
		return fmt.Errorf("starting assigner: %w", err)
	}
	return nil
}

// Addr is the bound listen address.
func (c *Coord) Addr() string { return c.srv.Addr() }

// Close stops the listener, the policy loops, the router, the assigner and
// the bookies. It is safe on a partly started Coord.
func (c *Coord) Close() {
	if c.srv != nil {
		_ = c.srv.Close()
	}
	if c.ctrl != nil {
		c.ctrl.Close()
	}
	if c.plane != nil {
		_ = c.plane.Close()
	}
	if c.assigner != nil {
		c.assigner.Close()
	}
	for _, b := range c.bookies {
		b.Close()
	}
	for _, d := range c.disks {
		d.Close()
	}
}

// StoreConfig configures the store role. The first five fields are
// pravega-server flags.
type StoreConfig struct {
	ID        string           // -store-id
	Advertise string           // -advertise; empty = the bound listen address
	CoordAddr string           // -coord-addr
	LTS       lts.ChunkStorage // -lts-dir as lts.FS: shared by every store, so any store serves any container's tiered data
	LeaseTTL  time.Duration    // -lease-ttl
	// Container tunes the store's containers; BK, Meta, LTS and
	// Replication are filled in.
	Container segstore.ContainerConfig
}

// Store is a running store role.
type Store struct {
	advertise string
	rs        *wire.RemoteStore
	st        *segstore.Store
	mgr       *segstore.OwnershipManager
	srv       *wire.Server
}

// StartStore dials the coord through dial (retrying for 30 s, so a store
// may boot before its coord), reads the topology it published, and serves
// one segment store on ln, which it owns from here on; the store's WAL
// journals to the coord's bookies. The ownership manager starts last, once
// the listener it advertises is up.
func StartStore(ln net.Listener, dial wire.Dialer, cfg StoreConfig) (*Store, error) {
	rs, err := wire.DialCoordOver(dial, cfg.CoordAddr, wire.ClientConfig{}, 30*time.Second)
	if err != nil {
		_ = ln.Close()
		return nil, fmt.Errorf("dialing coord: %w", err)
	}
	s := &Store{rs: rs}
	if err := s.start(ln, cfg); err != nil {
		_ = ln.Close() // again, harmlessly, if the server holds it
		s.Close()
		return nil, err
	}
	return s, nil
}

func (s *Store) start(ln net.Listener, cfg StoreConfig) error {
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
	ccfg := cfg.Container
	ccfg.BK, ccfg.Meta, ccfg.Replication, ccfg.LTS = bk, s.rs, topo.Replication, cfg.LTS
	if s.st, err = segstore.NewStore(segstore.StoreConfig{
		ID:              cfg.ID,
		TotalContainers: topo.TotalContainers,
		Container:       ccfg,
		Cluster:         s.rs,
		LeaseTTL:        cfg.LeaseTTL,
	}); err != nil {
		return fmt.Errorf("starting store: %w", err)
	}
	s.srv = wire.NewServer(wire.ServerConfig{Data: placement.Local{St: s.st}}, ln)
	s.advertise = cfg.Advertise
	if s.advertise == "" {
		s.advertise = s.srv.Addr()
	}
	if s.mgr, err = segstore.StartOwnershipManager(s.st, s.advertise); err != nil {
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
