package role

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"github.com/pravega-go/pravega/internal/bookkeeper"
	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/controller"
	"github.com/pravega-go/pravega/internal/lts"
	"github.com/pravega-go/pravega/internal/segstore"
	"github.com/pravega-go/pravega/internal/sim"
	"github.com/pravega-go/pravega/internal/wire"
)

// Net is the network a Cluster's roles run on.
type Net struct {
	// Listen opens the listener of the role named name ("coord" or a store
	// id) and returns the address the role advertises: the listener's own,
	// or that of a proxy in front of it.
	Listen func(name string) (ln net.Listener, advertise string, err error)
	// Dial is how the roles reach each other: the stores the coord at its
	// listener's address, the coord the stores at their advertised ones.
	Dial wire.Dialer
}

// SimNet is a Net in the address space n whose role-to-role connections
// are shaped by link (a Profile's ReplicaLink).
func SimNet(n *sim.Net, link sim.LinkConfig) Net {
	return Net{
		Listen: func(string) (net.Listener, string, error) {
			ln := n.Listen()
			return ln, ln.Addr().String(), nil
		},
		Dial: n.Dialer(link),
	}
}

// TCPNet is a Net on TCP: the coord listens on coordAddr, and each store on
// the same host at a port of its own.
func TCPNet(coordAddr string) Net {
	host, _, _ := net.SplitHostPort(coordAddr) // a bad address fails the coord's listen first
	return Net{
		Listen: func(name string) (net.Listener, string, error) {
			addr := net.JoinHostPort(host, "0")
			if name == "coord" {
				addr = coordAddr
			}
			ln, err := net.Listen("tcp", addr)
			if err != nil {
				return nil, "", err
			}
			return ln, ln.Addr().String(), nil
		},
		Dial: wire.DialTCP,
	}
}

// ClusterConfig sizes an in-process cluster: one coord role and
// Coord.Stores store roles. The defaults mirror Table 1 of the paper: 3
// segment stores × 4 containers over 3 bookies, replication 3/3/2.
type ClusterConfig struct {
	// Coord sizes the cluster (defaults 3 stores, 4 containers per store, 3
	// bookies) and tunes the controller and the bookies.
	Coord CoordConfig
	// Store is every store's template; ID, CoordAddr and Advertise are
	// filled in. LeaseTTL defaults to 3s; LTS to lts.Memory, or with a
	// Profile a modelled one over lts.Memory (lts.NoOp with
	// Coord.DiscardData).
	Store StoreConfig
	// Profile, when set, models the devices: each bookie journals to its
	// own Profile.Disk unless Coord.Journal is set. Links are the Net's.
	Profile *sim.Profile
}

func (c *ClusterConfig) defaults() {
	if c.Coord.Stores <= 0 {
		c.Coord.Stores = 3
	}
	if c.Coord.Containers <= 0 {
		c.Coord.Containers = 4
	}
	if c.Coord.Bookies <= 0 {
		c.Coord.Bookies = 3
	}
	if c.Store.LeaseTTL <= 0 {
		c.Store.LeaseTTL = 3 * time.Second
	}
	if p := c.Profile; p != nil && c.Coord.Journal == nil {
		c.Coord.Journal = &p.Disk
	}
	if c.Store.LTS == nil {
		switch {
		case c.Profile == nil:
			c.Store.LTS = lts.NewMemory()
		case c.Coord.DiscardData:
			c.Store.LTS = lts.NewSim(lts.NewNoOp(), c.Profile.LTS)
		default:
			c.Store.LTS = lts.NewSim(lts.NewMemory(), c.Profile.LTS)
		}
	}
}

// Cluster is one coord and its stores in one process, each role on its own
// listener of one Net, with the hooks fault injection needs: crash and
// wedge a store, add one, and wait for placement and tiering to settle.
type Cluster struct {
	nw    Net
	cfg   ClusterConfig
	coord *Coord
	addr  string // the coord's advertised address

	mu     sync.Mutex
	stores []*Store
}

// StartCluster starts the coord and cfg.Coord.Stores stores on nw and waits
// until every container is served.
func StartCluster(nw Net, cfg ClusterConfig) (*Cluster, error) {
	cfg.defaults()
	ln, addr, err := nw.Listen("coord")
	if err != nil {
		return nil, err
	}
	cl := &Cluster{nw: nw, cfg: cfg, addr: addr}
	cl.coord, err = startCoord(ln, nw.Dial, cfg.Coord)
	for i := 0; err == nil && i < cfg.Coord.Stores; i++ {
		_, err = cl.AddStore()
	}
	// Every store is registered before the assigner's first pass, so it
	// places each container once instead of handing them on as stores join.
	if err == nil {
		err = cl.coord.startAssigner(cl.TotalContainers())
	}
	if err == nil {
		err = cl.AwaitConverged(30 * time.Second)
	}
	if err != nil {
		cl.Close()
		return nil, err
	}
	return cl, nil
}

// Addr is the address clients bootstrap from: the coord's advertised one.
func (cl *Cluster) Addr() string { return cl.addr }

// Controller is the coord's controller.
func (cl *Cluster) Controller() *controller.Controller { return cl.coord.ctrl }

// Meta is the coord's coordination store.
func (cl *Cluster) Meta() *cluster.Store { return cl.coord.meta }

// TotalContainers returns the cluster-wide container count.
func (cl *Cluster) TotalContainers() int { return cl.cfg.Coord.Stores * cl.cfg.Coord.Containers }

// Bookies returns the coord's bookies (failure injection).
func (cl *Cluster) Bookies() []*bookkeeper.Bookie { return cl.coord.bookies }

// AddStore starts one more store; the assigner moves its share onto it.
func (cl *Cluster) AddStore() (*segstore.Store, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	id := fmt.Sprintf("segmentstore-%d", len(cl.stores))
	ln, advertise, err := cl.nw.Listen(id)
	if err != nil {
		return nil, err
	}
	scfg := cl.cfg.Store
	scfg.ID, scfg.CoordAddr, scfg.Advertise = id, cl.coord.Addr(), advertise
	s, err := StartStore(ln, cl.nw.Dial, scfg)
	if err != nil {
		return nil, err
	}
	cl.stores = append(cl.stores, s)
	return s.st, nil
}

// store returns the i-th store started.
func (cl *Cluster) store(i int) (*Store, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if i < 0 || i >= len(cl.stores) {
		return nil, errors.New("role: bad store index")
	}
	return cl.stores[i], nil
}

// CrashStore kills the i-th store as a process death would: its listener
// goes, its containers stop without flushing and its claims vanish with its
// session; the assigner names survivors, which fence the WALs and
// re-acquire (§4.4).
func (cl *Cluster) CrashStore(i int) error {
	s, err := cl.store(i)
	if err != nil {
		return err
	}
	s.Crash()
	return cl.coord.plane.Refresh()
}

// WedgeStore stops the i-th store's ownership manager without stopping the
// store: it keeps serving but stops renewing its lease and following the
// assignment, so its claims expire and survivors take over while the
// zombie still answers — the fencing stress case. Returns the wedged store.
func (cl *Cluster) WedgeStore(i int) (*segstore.Store, error) {
	s, err := cl.store(i)
	if err != nil {
		return nil, err
	}
	s.mgr.Stop()
	return s.st, nil
}

// Stores returns a snapshot of the segment stores, in start order.
func (cl *Cluster) Stores() []*segstore.Store {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	out := make([]*segstore.Store, len(cl.stores))
	for i, s := range cl.stores {
		out[i] = s.st
	}
	return out
}

// AwaitConverged blocks until every container is claimed and served (and
// the controller's router reflects it) or the timeout elapses. A store
// bumps the placement epoch once a started container serves; that wakes
// the wait.
func (cl *Cluster) AwaitConverged(timeout time.Duration) error {
	deadline := time.After(timeout)
	meta := cl.coord.meta
	for {
		ch, err := segstore.WatchPlacementEpoch(meta)
		if err != nil {
			return err
		}
		claims, err := segstore.ClaimedContainers(meta)
		if err != nil {
			return err
		}
		served := 0
		for _, st := range cl.Stores() {
			for _, id := range st.HostedContainers() {
				if claims[id] == st.ID() {
					served++
				}
			}
		}
		if served == cl.TotalContainers() {
			return cl.coord.plane.Refresh()
		}
		select {
		case <-ch:
		case <-deadline:
			return fmt.Errorf("role: %d/%d containers served after %v", served, cl.TotalContainers(), timeout)
		}
	}
}

// liveStores lists the stores that are up.
func (cl *Cluster) liveStores() []*segstore.Store {
	return slices.DeleteFunc(cl.Stores(), (*segstore.Store).Closed)
}

// LoadByStore aggregates byte rates per live store (Fig. 13's
// per-segment-store workload view).
func (cl *Cluster) LoadByStore() map[string]float64 {
	out := make(map[string]float64)
	for _, st := range cl.liveStores() {
		var sum float64
		for _, l := range st.LoadReport() {
			sum += l.BytesPerSec
		}
		out[st.ID()] = sum
	}
	return out
}

// liveContainers lists every container hosted on a store that is up.
func (cl *Cluster) liveContainers() []*segstore.Container {
	var out []*segstore.Container
	for _, st := range cl.liveStores() {
		for _, id := range st.HostedContainers() {
			if c, err := st.ContainerByID(id); err == nil {
				out = append(out, c)
			}
		}
	}
	return out
}

// WaitForTiering blocks until every container has no un-tiered backlog or
// the timeout elapses. On timeout the returned error wraps the first
// container-level flush error it finds, so a persistently failing LTS
// surfaces its cause instead of a silent deadline (§4.3 backpressure is
// meant to be observable).
func (cl *Cluster) WaitForTiering(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		pending := int64(0)
		for _, c := range cl.liveContainers() {
			pending += c.Stats().UnflushedBytes
		}
		if pending == 0 {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, c := range cl.liveContainers() {
		if ferr := c.LastFlushError(); ferr != nil {
			return fmt.Errorf("role: tiering did not drain within %v: %w", timeout, ferr)
		}
	}
	return fmt.Errorf("role: tiering did not drain within %v", timeout)
}

// Close stops the coord's assigner first, so closing stores do not hand
// containers to each other, then the stores, then the coord.
func (cl *Cluster) Close() {
	if cl.coord.assigner != nil {
		cl.coord.assigner.Close()
	}
	cl.mu.Lock()
	stores := cl.stores
	cl.mu.Unlock()
	for _, s := range stores {
		s.Close()
	}
	cl.coord.Close()
}
