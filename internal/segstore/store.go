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
	// Cluster is the coordination store for container assignment: a
	// wire.RemoteStore in a store role, the local store in unit tests.
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

	// claimMu orders claim deletes before the session's end (released).
	claimMu  sync.Mutex
	released bool
}

// Closed reports whether the store has been closed, drained or crashed.
func (st *Store) Closed() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.closed
}

// Done is closed once the store is closed, drained or crashed (by the
// ownership manager when the lease lapsed); the manager stops with it.
func (st *Store) Done() <-chan struct{} { return st.done }

const (
	assignmentRoot = "/pravega/containers"
	// placementEpochPath is a counter node whose version increments on every
	// container claim change. Clients cache a placement table stamped with
	// the epoch and refresh when the epoch moves (or a wrong-host reply
	// tells them it has).
	placementEpochPath = "/pravega/placement/epoch"
)

// CreatePlacementRoots makes the placement nodes every store, the assigner
// and a placement.CoordSource use; it is idempotent.
func CreatePlacementRoots(cs cluster.Coord) error {
	for _, p := range []string{hostsRoot, assignmentRoot, assignmentPath, placementEpochPath} {
		if err := cs.CreateAll(p, nil); err != nil && !errors.Is(err, cluster.ErrNodeExists) {
			return err
		}
	}
	return nil
}

// BumpPlacementEpoch advances the cluster-wide placement epoch. Call after
// any claim change (start, stop, crash, re-acquire).
func BumpPlacementEpoch(cs cluster.Coord) {
	_, _ = cs.Set(placementEpochPath, nil, -1) // best effort: routers also refresh on a miss
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
	return cs.WatchData(placementEpochPath)
}

// NewStore registers the store in the cluster. Containers are started with
// StartContainer (the assigner decides which; tests start them by hand).
func NewStore(cfg StoreConfig) (*Store, error) {
	if cfg.TotalContainers <= 0 {
		return nil, errors.New("segstore: TotalContainers must be positive")
	}
	if cfg.Cluster == nil {
		return nil, errors.New("segstore: Cluster is required")
	}
	if err := CreatePlacementRoots(cfg.Cluster); err != nil {
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
		st.dropClaim(id)
		return nil, err
	}
	st.mu.Lock()
	if st.closed { // closed during recovery: the container must not outlive the store
		st.mu.Unlock()
		_ = c.Close()
		return nil, fmt.Errorf("segstore: store %s closed while starting container %d: %w", st.cfg.ID, id, cluster.ErrSessionClosed)
	}
	st.containers[id] = c
	st.mu.Unlock()
	mOwnershipClaims.Inc()
	BumpPlacementEpoch(st.cfg.Cluster)
	return c, nil
}

// StopContainer gracefully hands off one hosted container: in-flight
// appends drain, unflushed data is forced to LTS, and only then is the
// claim released — the next owner recovers an empty (or minimal) WAL
// backlog. Used when the assigner takes a container away (§4.4).
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
	st.dropClaim(id)
	mOwnershipReleases.Inc()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
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
	st.dropClaim(id)
	return nil
}

// dropClaim deletes the claim on container id while the session lasts
// (after, the path may hold the next owner's) and bumps the placement epoch.
func (st *Store) dropClaim(id int) {
	st.claimMu.Lock()
	if !st.released {
		_ = st.cfg.Cluster.Delete(fmt.Sprintf("%s/%d", assignmentRoot, id), -1)
	}
	st.claimMu.Unlock()
	BumpPlacementEpoch(st.cfg.Cluster)
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

// shut marks the store closed — StartContainer refuses, the ownership
// manager stops — and returns its containers; false if already closed.
func (st *Store) shut() ([]*Container, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil, false
	}
	st.closed = true
	close(st.done)
	cs := make([]*Container, 0, len(st.containers))
	for _, c := range st.containers {
		cs = append(cs, c)
	}
	return cs, true
}

// release closes the session, dropping the host registration and claims.
func (st *Store) release() {
	st.claimMu.Lock()
	st.released = true
	st.claimMu.Unlock()
	st.session.Close()
	BumpPlacementEpoch(st.cfg.Cluster)
}

// Close stops all hosted containers and releases the store's claims.
func (st *Store) Close() error {
	cs, ok := st.shut()
	if !ok {
		return nil
	}
	var firstErr error
	for _, c := range cs {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	st.release()
	return firstErr
}

// Drain gracefully hands off every hosted container and then closes the
// store: each container is stopped via StopContainer — in-flight appends
// drain, unflushed data is forced to LTS, and the claim is released — and
// finally the session closes. Survivors take over via handoff instead of
// waiting out the lease TTL, and no lease expiry is recorded. This is the
// store role's SIGTERM path.
func (st *Store) Drain() error {
	if _, ok := st.shut(); !ok {
		return nil
	}
	var firstErr error
	for _, id := range st.HostedContainers() {
		if err := st.StopContainer(id); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	st.release()
	return firstErr
}

// Crash simulates an abrupt store failure: containers stop without
// flushing; ephemeral claims disappear as the session closes, letting
// another store take over (§4.4).
func (st *Store) Crash() {
	cs, ok := st.shut()
	if !ok {
		return
	}
	for _, c := range cs {
		c.Crash()
	}
	st.release()
}
