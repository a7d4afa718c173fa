// Package controller implements Pravega's control plane (§2.2, §3.1): it
// orchestrates stream lifecycle operations (create, seal, scale, truncate,
// delete), maintains the stream metadata that orders segments across
// scaling events (the epoch graph that writers and readers traverse), and
// runs the policy loops — auto-scaling from data-plane load reports and
// retention-driven truncation.
package controller

import (
	"fmt"
	"time"

	"github.com/pravega-go/pravega/internal/keyspace"
	"github.com/pravega-go/pravega/internal/segment"
)

// ScalingType selects the auto-scaling trigger (§2.1).
type ScalingType string

// Scaling policy kinds.
const (
	// ScalingFixed disables auto-scaling.
	ScalingFixed ScalingType = "fixed"
	// ScalingByEventRate scales on events/second per segment.
	ScalingByEventRate ScalingType = "events"
	// ScalingByThroughput scales on bytes/second per segment.
	ScalingByThroughput ScalingType = "bytes"
)

// ScalingPolicy drives stream auto-scaling (§3.1).
type ScalingPolicy struct {
	Type ScalingType
	// TargetRate is the desired per-segment rate (events/s or bytes/s).
	TargetRate float64
	// ScaleFactor is how many successors a hot segment splits into
	// (default 2).
	ScaleFactor int
	// MinSegments floors scale-down merges.
	MinSegments int
}

// RetentionType selects the truncation bound (§2.1).
type RetentionType string

// Retention policy kinds.
const (
	// RetentionNone keeps everything.
	RetentionNone RetentionType = "none"
	// RetentionBySize truncates once the stream exceeds LimitBytes.
	RetentionBySize RetentionType = "size"
	// RetentionByTime truncates data older than LimitDuration.
	RetentionByTime RetentionType = "time"
)

// RetentionPolicy bounds how much stream history is kept.
type RetentionPolicy struct {
	Type          RetentionType
	LimitBytes    int64
	LimitDuration time.Duration
}

// StreamConfig describes a stream at creation (policies may be updated
// later, §2.1).
type StreamConfig struct {
	Scope           string
	Name            string
	InitialSegments int
	Scaling         ScalingPolicy
	Retention       RetentionPolicy
}

func (c *StreamConfig) defaults() error {
	if c.Scope == "" || c.Name == "" {
		return fmt.Errorf("controller: scope and name are required")
	}
	if c.InitialSegments <= 0 {
		c.InitialSegments = 1
	}
	if c.Scaling.ScaleFactor <= 1 {
		c.Scaling.ScaleFactor = 2
	}
	if c.Scaling.MinSegments <= 0 {
		c.Scaling.MinSegments = 1
	}
	if c.Scaling.Type == "" {
		c.Scaling.Type = ScalingFixed
	}
	if c.Retention.Type == "" {
		c.Retention.Type = RetentionNone
	}
	return nil
}

// SegmentRecord is the controller's metadata for one segment: its key-space
// range and its position in the epoch graph (§3.2).
type SegmentRecord struct {
	ID       segment.ID     `json:"id"`
	KeyRange keyspace.Range `json:"keyRange"`
	Sealed   bool           `json:"sealed"`
	// Successors are the segments created when this one was sealed by a
	// scaling event; their ranges exactly partition this one's range
	// (split) or extend beyond it (merge).
	Successors []int64 `json:"successors"`
	// Predecessors are the segments whose sealing created this one.
	Predecessors []int64 `json:"predecessors"`
}

// SegmentWithRange pairs a segment id with its key range — the unit writers
// route on (§3.2).
type SegmentWithRange struct {
	ID       segment.ID
	KeyRange keyspace.Range
}

// StreamCut is a consistent frontier across a stream: segment number →
// offset. Used for truncation (§2.1).
type StreamCut map[int64]int64

// streamState is the controller's in-memory record of one stream.
type streamState struct {
	cfg      StreamConfig
	epoch    int32
	nextSeq  int32
	sealed   bool // stream-level seal
	deleted  bool
	segments map[int64]*SegmentRecord
	active   []int64 // numbers of the current epoch's open segments
	// truncation state
	head StreamCut // current truncation frontier
	// retention bookkeeping: periodic cuts with their record time and the
	// stream size up to the cut.
	cuts []recordedCut
	// scaling bookkeeping
	lastScale time.Time
	// txns tracks the stream's transactions by id (persisted, so open
	// transactions survive controller failover).
	txns map[string]*TxnRecord
}

type recordedCut struct {
	at  time.Time
	cut StreamCut
}

func scopedName(scope, stream string) string { return scope + "/" + stream }

// activeSegments returns the open segments with their ranges, sorted by
// range low bound. Sealed records are skipped: after SealStream the active
// list still names the final epoch's segments, but none accept appends.
func (st *streamState) activeSegments() []SegmentWithRange {
	out := make([]SegmentWithRange, 0, len(st.active))
	for _, n := range st.active {
		r := st.segments[n]
		if r == nil || r.Sealed {
			continue
		}
		out = append(out, SegmentWithRange{ID: r.ID, KeyRange: r.KeyRange})
	}
	sortByRange(out)
	return out
}

func sortByRange(s []SegmentWithRange) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].KeyRange.Low < s[j-1].KeyRange.Low; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
