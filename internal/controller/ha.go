package controller

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"github.com/pravega-go/pravega/internal/cluster"
)

// High availability (§2.2): multiple controller instances run concurrently.
// Stream management work is divided into a fixed number of management
// partitions; a stream maps to one partition by hash, and partitions are
// distributed across the live instances (tracked through ephemeral
// registrations in the coordination service). Each instance's policy loops
// evaluate only the streams whose partitions it currently owns, so the
// scaling/retention load spreads across instances and fails over
// automatically when an instance dies.

const controllersRoot = "/pravega/controllers"

// haState tracks one instance's membership registration.
type haState struct {
	instanceID string
	partitions int
	session    *cluster.Session
}

// EnableHA registers this controller instance for partitioned stream
// management. partitions is the number of stream-management partitions
// (must match across instances; default 16 when ≤ 0).
func (c *Controller) EnableHA(instanceID string, partitions int) error {
	if c.cfg.Cluster == nil {
		return errors.New("controller: HA requires a cluster store")
	}
	if instanceID == "" {
		return errors.New("controller: HA requires an instance id")
	}
	if partitions <= 0 {
		partitions = 16
	}
	if err := c.cfg.Cluster.CreateAll(controllersRoot, nil); err != nil && !errors.Is(err, cluster.ErrNodeExists) {
		return err
	}
	sess := c.cfg.Cluster.NewSession()
	if err := sess.CreateEphemeral(controllersRoot+"/"+instanceID, nil); err != nil {
		sess.Close()
		return fmt.Errorf("controller: registering instance: %w", err)
	}
	c.mu.Lock()
	c.ha = &haState{instanceID: instanceID, partitions: partitions, session: sess}
	c.mu.Unlock()
	return nil
}

// DisableHA withdraws the instance's registration.
func (c *Controller) DisableHA() {
	c.mu.Lock()
	ha := c.ha
	c.ha = nil
	c.mu.Unlock()
	if ha != nil {
		ha.session.Close()
	}
}

// streamPartition maps a stream to its management partition.
func streamPartition(key string, partitions int) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % uint32(partitions))
}

// ownedPartitions returns the set of partitions this instance currently
// owns: live instances (sorted) share partitions round-robin, so ownership
// is a pure function of the membership view and converges on every
// instance (§2.2: partitions "distributed and owned by controller
// instances ... to balance the stream management load").
func (c *Controller) ownedPartitions() (map[int]bool, bool) {
	c.mu.Lock()
	ha := c.ha
	c.mu.Unlock()
	if ha == nil {
		return nil, false // HA off: own everything
	}
	instances, err := c.cfg.Cluster.Children(controllersRoot)
	if err != nil || len(instances) == 0 {
		return map[int]bool{}, true // play safe: own nothing this tick
	}
	sort.Strings(instances)
	self := -1
	for i, id := range instances {
		if id == ha.instanceID {
			self = i
			break
		}
	}
	owned := make(map[int]bool)
	if self < 0 {
		return owned, true // registration lost (session expired)
	}
	for p := 0; p < ha.partitions; p++ {
		if p%len(instances) == self {
			owned[p] = true
		}
	}
	return owned, true
}

// RefreshFromStore reloads persisted stream metadata written by other
// controller instances. Streams already known locally are replaced only if
// the persisted node version advanced; HA policy loops call this before
// each evaluation so ownership changes pick up current state.
func (c *Controller) RefreshFromStore() error {
	if c.cfg.Cluster == nil {
		return nil
	}
	names, err := c.cfg.Cluster.Children(streamsRoot)
	if errors.Is(err, cluster.ErrNoNode) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, n := range names {
		if err := c.reloadOne(n); err != nil {
			return err
		}
	}
	return nil
}
