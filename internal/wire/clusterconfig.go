package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"github.com/pravega-go/pravega/internal/bookkeeper"
	"github.com/pravega-go/pravega/internal/cluster"
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
