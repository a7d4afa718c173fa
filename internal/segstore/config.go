package segstore

import (
	"time"

	"github.com/pravega-go/pravega/internal/blockcache"
	"github.com/pravega-go/pravega/internal/bookkeeper"
	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/lts"
)

// ContainerConfig parameterizes one segment container.
type ContainerConfig struct {
	// ID is the container's index within the cluster's container key space.
	ID int
	// BK is the BookKeeper client for the container's WAL.
	BK *bookkeeper.Client
	// Meta is the coordination store (WAL metadata, fencing epochs).
	Meta cluster.Coord
	// Replication configures the WAL ledgers.
	Replication bookkeeper.ReplicationConfig
	// LTS is the long-term storage backend.
	LTS lts.ChunkStorage
	// Cache sizes the container's block cache.
	Cache blockcache.Config

	// MaxFrameDelay bounds the adaptive batching delay (default 20 ms).
	MaxFrameDelay time.Duration
	// WALRolloverBytes is the ledger rollover threshold.
	WALRolloverBytes int64

	// FlushSizeBytes is the per-segment aggregation threshold before the
	// storage writer writes a chunk to LTS (default 1 MiB).
	FlushSizeBytes int64
	// FlushInterval forces a flush of any pending data (default 100 ms).
	FlushInterval time.Duration
	// ChunkSizeLimit rolls a segment over to a new chunk object
	// (default 16 MiB).
	ChunkSizeLimit int64
	// MaxUnflushedBytes throttles appends when the LTS backlog exceeds it
	// (integrated-tiering backpressure, §4.3; default 32 MiB).
	MaxUnflushedBytes int64

	// CheckpointInterval bounds time between metadata checkpoints
	// (default 1 s).
	CheckpointInterval time.Duration

	// MaxReadFanout bounds the parallel per-chunk LTS reads issued for one
	// historical read (default 8; 1 degenerates to the sequential
	// single-chunk baseline).
	MaxReadFanout int
	// ReadAheadDepth is how many 1 MiB ranges the catch-up prefetcher keeps
	// in flight or buffered after each historical read (default 4; negative
	// disables readahead).
	ReadAheadDepth int

	// Hooks exposes deterministic crash points inside the pipeline for
	// fault-injection tests (internal/faultinject). Nil in production.
	Hooks *Hooks
}

func (c *ContainerConfig) defaults() {
	if c.MaxFrameDelay <= 0 {
		c.MaxFrameDelay = 20 * time.Millisecond
	}
	if c.WALRolloverBytes <= 0 {
		c.WALRolloverBytes = 64 << 20
	}
	if c.FlushSizeBytes <= 0 {
		c.FlushSizeBytes = 1 << 20
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 100 * time.Millisecond
	}
	if c.ChunkSizeLimit <= 0 {
		c.ChunkSizeLimit = 16 << 20
	}
	if c.MaxUnflushedBytes <= 0 {
		c.MaxUnflushedBytes = 32 << 20
	}
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = time.Second
	}
	if c.MaxReadFanout <= 0 {
		c.MaxReadFanout = 8
	}
	if c.ReadAheadDepth == 0 {
		c.ReadAheadDepth = 4
	}
}
