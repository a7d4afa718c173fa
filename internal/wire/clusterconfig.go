package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"github.com/pravega-go/pravega/internal/bookkeeper"
	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/segstore"
)

// ClusterConfigPath is the coordination node where the coord process
// publishes the shared cluster topology for store processes to read.
const ClusterConfigPath = "/pravega/config"

// ClusterTopology is the multi-process cluster's shared configuration: the
// container key-space size every component hashes into, and the WAL bookie
// ensemble served by the coord process.
type ClusterTopology struct {
	TotalContainers int                          `json:"totalContainers"`
	Bookies         []string                     `json:"bookies"`
	Replication     bookkeeper.ReplicationConfig `json:"replication"`
}

// PublishClusterTopology writes (or overwrites) the topology node.
func PublishClusterTopology(cs cluster.Coord, topo ClusterTopology) error {
	data, err := json.Marshal(topo)
	if err != nil {
		return err
	}
	if err := cs.CreateAll(ClusterConfigPath, data); err != nil {
		if !errors.Is(err, cluster.ErrNodeExists) {
			return err
		}
		_, err = cs.Set(ClusterConfigPath, data, -1)
		return err
	}
	return nil
}

// FetchClusterTopology reads the topology node, retrying until the coord
// process has published it or the timeout lapses (a store process can win
// the boot race against the coord process's publish).
func FetchClusterTopology(cs cluster.Coord, timeout time.Duration) (ClusterTopology, error) {
	deadline := time.Now().Add(timeout)
	for {
		data, _, err := cs.Get(ClusterConfigPath)
		if err == nil {
			var topo ClusterTopology
			if jerr := json.Unmarshal(data, &topo); jerr != nil {
				return ClusterTopology{}, fmt.Errorf("wire: cluster topology: %w", jerr)
			}
			if topo.TotalContainers <= 0 {
				return ClusterTopology{}, fmt.Errorf("wire: cluster topology: bad container count %d", topo.TotalContainers)
			}
			return topo, nil
		}
		if !errors.Is(err, cluster.ErrNoNode) || !time.Now().Before(deadline) {
			return ClusterTopology{}, fmt.Errorf("wire: cluster topology unavailable: %w", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// CoordClusterInfo answers MsgClusterInfo from the claim set in the
// coordination store: store identities are the sorted live host ids,
// StoreAddrs carries each one's advertised address (empty in the
// single-process server, whose stores all sit behind its one listener), and
// ContainerHome maps containers to store indices. Hosts and their claims
// share a session, so a dead store's address and its claims vanish
// together.
func CoordClusterInfo(cs cluster.Coord, totalContainers int) (ClusterInfo, error) {
	// Epoch first: a claim change racing the reads below then leaves the
	// client's table stamped older than its contents, and its epoch watch
	// fires again — the other order could hide the change from the watch.
	epoch := segstore.PlacementEpoch(cs)
	ids, addrs, err := segstore.LiveHosts(cs)
	if err != nil {
		return ClusterInfo{}, err
	}
	claims, err := segstore.ClaimedContainers(cs)
	if err != nil {
		return ClusterInfo{}, err
	}
	idx := make(map[string]int, len(ids))
	storeAddrs := make([]string, len(ids))
	for i, h := range ids {
		idx[h] = i
		storeAddrs[i] = addrs[h]
	}
	home := make(map[int]int, len(claims))
	for cid, host := range claims {
		if i, ok := idx[host]; ok {
			home[cid] = i
		}
	}
	return ClusterInfo{
		TotalContainers: totalContainers,
		Stores:          len(ids),
		ContainerHome:   home,
		StoreAddrs:      storeAddrs,
		Epoch:           epoch,
	}, nil
}
