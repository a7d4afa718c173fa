// Package hosting assembles a complete in-process Pravega cluster — the
// coordination store, a bookie ensemble, segment store instances with their
// containers distributed across them, and a long-term storage backend — and
// injects faults into it (store crashes and wedges). Routing is not its job:
// Router() is a placement.Router over the cluster's claim set with direct
// calls as the per-store transport, the same router internal/wire runs over
// its connections. Clients never call it directly: internal/role's StartAll
// serves a cluster over the wire protocol, on an in-memory listener behind
// pravega.NewInProcess (tests, examples, the benchmark figures) and on TCP
// for pravega-server -role all.
//
// Container placement is dynamic (§2.2, §4.4): an assigner publishes the
// container → store assignment and each store claims what it is given with
// lease-backed ephemeral nodes; a crashed store's containers go to survivors.
package hosting

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/pravega-go/pravega/internal/bookkeeper"
	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/lts"
	"github.com/pravega-go/pravega/internal/placement"
	"github.com/pravega-go/pravega/internal/segstore"
	"github.com/pravega-go/pravega/internal/sim"
)

// ClusterConfig sizes an in-process cluster. The defaults mirror Table 1 of
// the paper: 3 segment stores co-located with 3 bookies, replication 3/3/2.
type ClusterConfig struct {
	// Stores is the number of segment store instances (default 3).
	Stores int
	// ContainersPerStore is how many containers each store hosts
	// (default 4).
	ContainersPerStore int
	// Bookies is the bookie count (default 3).
	Bookies int
	// Replication configures ledger quorums (default 3/3/2).
	Replication bookkeeper.ReplicationConfig
	// LeaseTTL is each store's claim-lease duration (default 3s). A store
	// that stops renewing loses every claim at once.
	LeaseTTL time.Duration
	// Profile, when non-nil, enables the simulated performance substrate:
	// bookie journals on modelled NVMe drives, shaped replica links, and a
	// modelled LTS unless LTS is set explicitly.
	Profile *sim.Profile
	// NoSyncJournal disables journal fsyncs ("Pravega no flush", §5.2).
	NoSyncJournal bool
	// DiscardData keeps only sizes in bookies (benchmark memory bound).
	DiscardData bool
	// LTS overrides the long-term storage backend (default lts.Memory, or
	// a Sim-wrapped NoOp store when Profile is set).
	LTS lts.ChunkStorage
	// Container overrides container tuning fields (ID/BK/Meta/LTS/
	// Replication are filled in by the cluster).
	Container segstore.ContainerConfig
}

func (c *ClusterConfig) defaults() {
	if c.Stores <= 0 {
		c.Stores = 3
	}
	if c.ContainersPerStore <= 0 {
		c.ContainersPerStore = 4
	}
	if c.Bookies <= 0 {
		c.Bookies = 3
	}
	if c.Replication.Ensemble == 0 {
		c.Replication = bookkeeper.DefaultReplication()
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 3 * time.Second
	}
}

// Cluster is a running in-process deployment.
type Cluster struct {
	cfg  ClusterConfig
	Meta *cluster.Store
	BK   *bookkeeper.Client
	LTS  lts.ChunkStorage

	bookies []*bookkeeper.Bookie
	disks   []*sim.Disk
	total   int

	mu         sync.Mutex
	stores     []*segstore.Store
	storesByID map[string]*segstore.Store
	mgrs       map[string]*segstore.OwnershipManager

	assigner *segstore.Assigner
	router   *placement.Router
}

// NewCluster builds and starts the deployment.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	cfg.defaults()
	meta := cluster.NewStore()

	var linkCfg sim.LinkConfig
	if cfg.Profile != nil {
		linkCfg = cfg.Profile.ReplicaLink
	}
	bk, err := bookkeeper.NewClient(bookkeeper.ClientConfig{Meta: meta, Link: linkCfg})
	if err != nil {
		return nil, err
	}
	cl := &Cluster{
		cfg:        cfg,
		Meta:       meta,
		BK:         bk,
		storesByID: make(map[string]*segstore.Store),
		mgrs:       make(map[string]*segstore.OwnershipManager),
		total:      cfg.Stores * cfg.ContainersPerStore,
	}

	for i := 0; i < cfg.Bookies; i++ {
		bcfg := bookkeeper.BookieConfig{
			ID:          fmt.Sprintf("bookie-%d", i),
			NoSync:      cfg.NoSyncJournal,
			DiscardData: cfg.DiscardData,
		}
		if cfg.Profile != nil {
			d := sim.NewDisk(cfg.Profile.Disk)
			cl.disks = append(cl.disks, d)
			bcfg.Journal = d.OpenFile("journal")
		}
		b := bookkeeper.NewBookie(bcfg)
		cl.bookies = append(cl.bookies, b)
		bk.RegisterBookie(b)
	}

	cl.LTS = cfg.LTS
	if cl.LTS == nil {
		if cfg.Profile != nil {
			var inner lts.ChunkStorage = lts.NewMemory()
			if cfg.DiscardData {
				inner = lts.NewNoOp()
			}
			cl.LTS = lts.NewSim(inner, cfg.Profile.LTS)
		} else {
			cl.LTS = lts.NewMemory()
		}
	}

	for si := 0; si < cfg.Stores; si++ {
		if _, err := cl.addStoreLocked(); err != nil {
			cl.Close()
			return nil, err
		}
	}

	// Every host is registered before the assigner's first pass, so it
	// places each container once instead of handing them on as stores join.
	if cl.assigner, err = segstore.StartAssigner(meta, cl.total); err != nil {
		cl.Close()
		return nil, err
	}
	cl.router, err = placement.New(placement.Config{
		Source: placement.CoordSource{Coord: meta, Total: cl.total},
		Dial:   cl.dialStore,
	})
	if err != nil {
		cl.Close()
		return nil, err
	}
	if err := cl.AwaitConverged(30 * time.Second); err != nil {
		cl.Close()
		return nil, err
	}
	return cl, nil
}

// dialStore is the router's direct transport: a claim holder's id resolves
// to the store object in this process.
func (cl *Cluster) dialStore(ep placement.Endpoint) (placement.Store, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	st, ok := cl.storesByID[ep.ID]
	if !ok {
		return nil, fmt.Errorf("hosting: no store %q", ep.ID)
	}
	return placement.Local{St: st}, nil
}

// Router is the cluster's data plane: it routes by the live claim set and
// serves as the controller's DataPlane and the all-planes server's data
// backend.
func (cl *Cluster) Router() *placement.Router { return cl.router }

// addStoreLocked creates one store and its ownership manager and appends
// them to the cluster. Callers hold no locks during NewCluster; AddStore
// takes cl.mu.
func (cl *Cluster) addStoreLocked() (*segstore.Store, error) {
	ccfg := cl.cfg.Container
	ccfg.BK = cl.BK
	ccfg.Meta = cl.Meta
	ccfg.Replication = cl.cfg.Replication
	ccfg.LTS = cl.LTS
	id := fmt.Sprintf("segmentstore-%d", len(cl.stores))
	for {
		if _, taken := cl.storesByID[id]; !taken {
			break
		}
		id += "r" // restarted replacement for a crashed id
	}
	st, err := segstore.NewStore(segstore.StoreConfig{
		ID:              id,
		TotalContainers: cl.total,
		Container:       ccfg,
		Cluster:         cl.Meta,
		LeaseTTL:        cl.cfg.LeaseTTL,
	})
	if err != nil {
		return nil, err
	}
	cl.stores = append(cl.stores, st)
	cl.storesByID[id] = st
	m, err := segstore.StartOwnershipManager(st, "")
	if err != nil {
		return nil, err
	}
	cl.mgrs[id] = m
	return st, nil
}

// AddStore adds a segment store to the running cluster; the assigner
// moves its share onto it. Returns the new store.
func (cl *Cluster) AddStore() (*segstore.Store, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.addStoreLocked()
}

// CrashStore abruptly kills one store: its containers stop without
// flushing and its claims vanish with its session; the assigner names
// survivors, which fence the WALs and re-acquire (§4.4).
func (cl *Cluster) CrashStore(i int) error {
	cl.mu.Lock()
	if i < 0 || i >= len(cl.stores) {
		cl.mu.Unlock()
		return errors.New("hosting: bad store index")
	}
	st := cl.stores[i]
	cl.mu.Unlock()
	st.Crash()
	return cl.router.Refresh()
}

// WedgeStore stops a store's ownership manager without stopping the store:
// the store keeps serving but stops renewing its lease and following the
// assignment, so its claims expire and survivors take over while the
// zombie still answers — the fencing stress case. Returns the wedged store.
func (cl *Cluster) WedgeStore(i int) (*segstore.Store, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if i < 0 || i >= len(cl.stores) {
		return nil, errors.New("hosting: bad store index")
	}
	st := cl.stores[i]
	if m, ok := cl.mgrs[st.ID()]; ok {
		m.Stop()
	}
	return st, nil
}

// TotalContainers returns the cluster-wide container count.
func (cl *Cluster) TotalContainers() int { return cl.total }

// Stores returns a snapshot of the segment store instances.
func (cl *Cluster) Stores() []*segstore.Store {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	out := make([]*segstore.Store, len(cl.stores))
	copy(out, cl.stores)
	return out
}

// Bookies returns the bookie instances (failure injection).
func (cl *Cluster) Bookies() []*bookkeeper.Bookie { return cl.bookies }

// Close shuts everything down, the assigner first so closing stores do not
// hand containers to each other.
func (cl *Cluster) Close() {
	if cl.assigner != nil {
		cl.assigner.Close()
	}
	if cl.router != nil {
		_ = cl.router.Close()
	}
	for _, st := range cl.Stores() {
		_ = st.Close()
	}
	for _, b := range cl.bookies {
		b.Close()
	}
	for _, d := range cl.disks {
		d.Close()
	}
}

// LoadByStore aggregates byte rates per store instance (Fig. 13's
// per-segment-store workload view).
func (cl *Cluster) LoadByStore() map[string]float64 {
	stores := cl.Stores()
	out := make(map[string]float64, len(stores))
	for _, st := range stores {
		if st.Closed() {
			continue
		}
		var sum float64
		for _, l := range st.LoadReport() {
			sum += l.BytesPerSec
		}
		out[st.ID()] = sum
	}
	return out
}

// AwaitConverged blocks until every container is claimed and served (and
// the router's table reflects it) or the timeout elapses. A store bumps the
// placement epoch once a started container serves; that wakes the wait.
func (cl *Cluster) AwaitConverged(timeout time.Duration) error {
	deadline := time.After(timeout)
	for {
		ch, err := segstore.WatchPlacementEpoch(cl.Meta)
		if err != nil {
			return err
		}
		claims, err := segstore.ClaimedContainers(cl.Meta)
		if err != nil {
			return err
		}
		served := 0
		cl.mu.Lock()
		for id, owner := range claims {
			if st, ok := cl.storesByID[owner]; ok && slices.Contains(st.HostedContainers(), id) {
				served++
			}
		}
		cl.mu.Unlock()
		if served == cl.total {
			return cl.router.Refresh()
		}
		select {
		case <-ch:
		case <-deadline:
			return fmt.Errorf("hosting: %d/%d containers served after %v", served, cl.total, timeout)
		}
	}
}

// liveContainers lists every container hosted on a store that is up.
func (cl *Cluster) liveContainers() []*segstore.Container {
	var out []*segstore.Container
	for _, st := range cl.Stores() {
		if st.Closed() {
			continue
		}
		for _, id := range st.HostedContainers() {
			if c, err := st.ContainerByID(id); err == nil {
				out = append(out, c)
			}
		}
	}
	return out
}

// FlushAll forces every live container's unflushed data to LTS (graceful
// drain path for cmd/pravega-server).
func (cl *Cluster) FlushAll() error {
	var firstErr error
	for _, c := range cl.liveContainers() {
		if err := c.FlushAll(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
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
			return fmt.Errorf("hosting: tiering did not drain within %v: %w", timeout, ferr)
		}
	}
	return fmt.Errorf("hosting: tiering did not drain within %v", timeout)
}
