package segstore

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/keyspace"
	"github.com/pravega-go/pravega/internal/segment"
)

// StoreConfig parameterizes a segment store instance.
type StoreConfig struct {
	// ID names the store instance.
	ID string
	// TotalContainers is the cluster-wide container count (the key space
	// every component hashes segments into, §2.2).
	TotalContainers int
	// Container is the template for hosted containers (ID overridden).
	Container ContainerConfig
	// Cluster is the coordination store for container assignment — the local
	// store in-process, or a wire.RemoteStore in a store-role process.
	Cluster cluster.Coord
	// LeaseTTL bounds how stale this store's container claims can be: the
	// store's cluster session expires unless renewed within this window
	// (§4.4). Zero means the session never expires (claims drop only on
	// Close/Crash) — the pre-dynamic-ownership behavior.
	LeaseTTL time.Duration
}

// Store is one segment store instance hosting a subset of the cluster's
// segment containers (§2.2). Assignment is recorded in the coordination
// service via ephemeral nodes, so a crashed store's containers become
// reassignable (§4.4).
type Store struct {
	cfg     StoreConfig
	session cluster.CoordSession

	mu         sync.Mutex
	containers map[int]*Container
	closed     bool
	done       chan struct{} // closed with closed
	mgr        *OwnershipManager
}

func (st *Store) setManager(m *OwnershipManager) {
	st.mu.Lock()
	st.mgr = m
	st.mu.Unlock()
}

// Closed reports whether the store has been closed or crashed.
func (st *Store) Closed() bool { return st.isClosed() }

func (st *Store) isClosed() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.closed
}

// Done returns a channel closed once the store is closed or crashed — by
// its owner, or by the ownership manager when the lease lapsed.
func (st *Store) Done() <-chan struct{} { return st.done }

// markClosedLocked flips the store to closed. Caller holds st.mu and has
// checked that it was open.
func (st *Store) markClosedLocked() {
	st.closed = true
	close(st.done)
}

func (st *Store) hosts(id int) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	_, ok := st.containers[id]
	return ok
}

const (
	assignmentRoot = "/pravega/containers"
	// placementEpochPath is a counter node whose version increments on every
	// container claim change. Clients cache a placement table stamped with
	// the epoch and refresh when the epoch moves (or a wrong-host reply
	// tells them it has).
	placementEpochPath = "/pravega/placement/epoch"
)

// BumpPlacementEpoch advances the cluster-wide placement epoch. Call after
// any claim change (start, stop, crash, re-acquire).
func BumpPlacementEpoch(cs cluster.Coord) {
	if _, err := cs.Set(placementEpochPath, nil, -1); errors.Is(err, cluster.ErrNoNode) {
		_ = cs.CreateAll(placementEpochPath, nil)
		_, _ = cs.Set(placementEpochPath, nil, -1)
	}
}

// PlacementEpoch reads the current placement epoch (0 when unset).
func PlacementEpoch(cs cluster.Coord) int64 {
	_, st, err := cs.Get(placementEpochPath)
	if err != nil {
		return 0
	}
	return st.Version
}

// WatchPlacementEpoch arms a one-shot watch on the epoch node.
func WatchPlacementEpoch(cs cluster.Coord) (<-chan cluster.Event, error) {
	ch, err := cs.WatchData(placementEpochPath)
	if errors.Is(err, cluster.ErrNoNode) {
		if cerr := cs.CreateAll(placementEpochPath, nil); cerr != nil && !errors.Is(cerr, cluster.ErrNodeExists) {
			return nil, cerr
		}
		return cs.WatchData(placementEpochPath)
	}
	return ch, err
}

// NewStore registers the store in the cluster. Containers are started with
// StartContainer (the controller or an orchestration loop decides which).
func NewStore(cfg StoreConfig) (*Store, error) {
	if cfg.TotalContainers <= 0 {
		return nil, errors.New("segstore: TotalContainers must be positive")
	}
	if cfg.Cluster == nil {
		return nil, errors.New("segstore: Cluster is required")
	}
	if err := cfg.Cluster.CreateAll(assignmentRoot, nil); err != nil && !errors.Is(err, cluster.ErrNodeExists) {
		return nil, err
	}
	if err := cfg.Cluster.CreateAll(placementEpochPath, nil); err != nil && !errors.Is(err, cluster.ErrNodeExists) {
		return nil, err
	}
	sess, err := cfg.Cluster.OpenSession(cfg.LeaseTTL)
	if err != nil {
		return nil, err
	}
	return &Store{
		cfg:        cfg,
		session:    sess,
		containers: make(map[int]*Container),
		done:       make(chan struct{}),
	}, nil
}

// ID returns the store's identifier.
func (st *Store) ID() string { return st.cfg.ID }

// StartContainer claims and starts the container with the given id. The
// claim is an ephemeral node: if another live store holds it, the start
// fails — at most one instance of a container runs at a time, and WAL
// fencing protects the data even if the claim's owner is stale (§4.4).
func (st *Store) StartContainer(id int) (*Container, error) {
	if id < 0 || id >= st.cfg.TotalContainers {
		return nil, fmt.Errorf("segstore: container id %d out of range [0,%d)", id, st.cfg.TotalContainers)
	}
	path := fmt.Sprintf("%s/%d", assignmentRoot, id)
	if err := st.session.CreateEphemeral(path, []byte(st.cfg.ID)); err != nil {
		if errors.Is(err, cluster.ErrNodeExists) {
			return nil, fmt.Errorf("segstore: container %d already claimed: %w", id, err)
		}
		return nil, err
	}
	ccfg := st.cfg.Container
	ccfg.ID = id
	c, err := NewContainer(ccfg)
	if err != nil {
		_ = st.cfg.Cluster.Delete(path, -1)
		return nil, err
	}
	st.mu.Lock()
	st.containers[id] = c
	st.mu.Unlock()
	BumpPlacementEpoch(st.cfg.Cluster)
	return c, nil
}

// StopContainer gracefully hands off one hosted container: in-flight
// appends drain, unflushed data is forced to LTS, and only then is the
// claim released — the next owner recovers an empty (or minimal) WAL
// backlog. Used by the rebalancer when shedding load (§4.4).
func (st *Store) StopContainer(id int) error {
	st.mu.Lock()
	c, ok := st.containers[id]
	delete(st.containers, id)
	st.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: container %d not hosted on %s", ErrWrongContainer, id, st.cfg.ID)
	}
	flushErr := c.FlushAll()
	closeErr := c.Close()
	_ = st.cfg.Cluster.Delete(fmt.Sprintf("%s/%d", assignmentRoot, id), -1)
	BumpPlacementEpoch(st.cfg.Cluster)
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// RenewLease extends the store's session lease. cluster.ErrSessionClosed
// means the lease already expired: every claim this store held is gone and
// its containers are zombies that must stop serving.
func (st *Store) RenewLease() error {
	return st.session.Renew()
}

// CrashContainer abruptly stops one hosted container (fault-injection
// tests): the container crashes without flushing, and its claim is released
// so a restart — on this store or another — can re-acquire it. The WAL
// handle stays open, as a killed process would leave it; the next instance
// fences it (§4.4).
func (st *Store) CrashContainer(id int) error {
	st.mu.Lock()
	c, ok := st.containers[id]
	delete(st.containers, id)
	st.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: container %d not hosted on %s", ErrWrongContainer, id, st.cfg.ID)
	}
	c.Crash()
	_ = st.cfg.Cluster.Delete(fmt.Sprintf("%s/%d", assignmentRoot, id), -1)
	BumpPlacementEpoch(st.cfg.Cluster)
	return nil
}

// Container returns the hosted container for a segment name, or
// ErrWrongContainer when this store does not own the mapped container.
// Transaction segments route by their parent's name (segment.RoutingName)
// so commit-by-merge is container-local.
func (st *Store) Container(segmentName string) (*Container, error) {
	id := keyspace.HashToContainer(segment.RoutingName(segmentName), st.cfg.TotalContainers)
	return st.ContainerByID(id)
}

// ContainerByID returns a hosted container.
func (st *Store) ContainerByID(id int) (*Container, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	c, ok := st.containers[id]
	if !ok {
		return nil, fmt.Errorf("%w: container %d not hosted on %s", ErrWrongContainer, id, st.cfg.ID)
	}
	return c, nil
}

// HostedContainers lists the ids of containers this store runs.
func (st *Store) HostedContainers() []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]int, 0, len(st.containers))
	for id := range st.containers {
		out = append(out, id)
	}
	return out
}

// ContainerOwner resolves which store currently claims a container.
func ContainerOwner(cs cluster.Coord, id int) (string, error) {
	data, _, err := cs.Get(fmt.Sprintf("%s/%d", assignmentRoot, id))
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// LoadReport aggregates per-segment load across hosted containers for the
// controller's scaling feedback loop (§3.1).
func (st *Store) LoadReport() []SegmentLoad {
	st.mu.Lock()
	cs := make([]*Container, 0, len(st.containers))
	for _, c := range st.containers {
		cs = append(cs, c)
	}
	st.mu.Unlock()
	var out []SegmentLoad
	for _, c := range cs {
		out = append(out, c.LoadReport()...)
	}
	return out
}

// Close stops all hosted containers and releases the store's claims.
func (st *Store) Close() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	st.markClosedLocked()
	mgr := st.mgr
	cs := make([]*Container, 0, len(st.containers))
	for _, c := range st.containers {
		cs = append(cs, c)
	}
	st.mu.Unlock()
	if mgr != nil {
		mgr.Stop()
	}
	var firstErr error
	for _, c := range cs {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	st.session.Close()
	BumpPlacementEpoch(st.cfg.Cluster)
	return firstErr
}

// Drain gracefully hands off every hosted container and then closes the
// store: the ownership manager stops (so it cannot re-claim), each container
// is stopped via StopContainer — in-flight appends drain, unflushed data is
// forced to LTS, and the claim is released — and finally the session closes.
// Survivors take over via handoff instead of waiting out the lease TTL, and
// no lease expiry is recorded. This is the store role's SIGTERM path.
func (st *Store) Drain() error {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil
	}
	mgr := st.mgr
	st.mu.Unlock()
	if mgr != nil {
		mgr.Stop()
	}
	var firstErr error
	for _, id := range st.HostedContainers() {
		if err := st.StopContainer(id); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := st.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Crash simulates an abrupt store failure: containers stop without
// flushing; ephemeral claims disappear as the session closes, letting
// another store take over (§4.4).
func (st *Store) Crash() {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return
	}
	st.markClosedLocked()
	mgr := st.mgr
	cs := make([]*Container, 0, len(st.containers))
	for _, c := range st.containers {
		cs = append(cs, c)
	}
	st.mu.Unlock()
	if mgr != nil {
		mgr.Stop()
	}
	for _, c := range cs {
		c.Crash()
	}
	st.session.Close()
	BumpPlacementEpoch(st.cfg.Cluster)
}
