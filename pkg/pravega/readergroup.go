package pravega

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"github.com/pravega-go/pravega/internal/client"
	"github.com/pravega-go/pravega/internal/segment"
	"github.com/pravega-go/pravega/internal/segstore"
	"github.com/pravega-go/pravega/internal/statesync"
)

// ReaderGroup coordinates a set of readers over a set of streams so that
// every event is processed exactly once by the group (§3.3): at any time
// each active segment is assigned to at most one reader, assignments strive
// for fairness, and a scale-down successor is held back until every
// predecessor has been fully read, preserving per-key order. Coordination
// state is replicated through the state synchronizer over a dedicated
// segment.
type ReaderGroup struct {
	sys     *System
	name    string
	scope   string
	streams []string
	conn    client.DataTransport
	sync    *statesync.Synchronizer
	// stateSeg is the segment the synchronizer replicates the group through.
	stateSeg string

	mu    sync.Mutex
	state rgState
}

// rgSegment is the group's record of one stream segment, keyed by its
// qualified name (unique across streams and epochs).
type rgSegment struct {
	Number      int64    `json:"number"`
	Stream      string   `json:"stream"`
	Qualified   string   `json:"qualified"`
	StartOffset int64    `json:"startOffset"`
	Preds       []string `json:"preds,omitempty"` // qualified names
}

// rgUpdate is one replicated state transition.
type rgUpdate struct {
	Op       string      `json:"op"` // init|addReader|removeReader|acquire|release|complete
	Reader   string      `json:"reader,omitempty"`
	Segment  string      `json:"segment,omitempty"` // qualified name
	Offset   int64       `json:"offset,omitempty"`
	Segments []rgSegment `json:"segments,omitempty"`
}

// rgState is the deterministic replicated state.
type rgState struct {
	readers    map[string]bool
	segInfo    map[string]rgSegment
	unassigned map[string]bool
	pending    map[string]bool
	assigned   map[string]string
	completed  map[string]bool
}

func newRGState() rgState {
	return rgState{
		readers:    make(map[string]bool),
		segInfo:    make(map[string]rgSegment),
		unassigned: make(map[string]bool),
		pending:    make(map[string]bool),
		assigned:   make(map[string]string),
		completed:  make(map[string]bool),
	}
}

// NewReaderGroup creates (or joins) a reader group over one or more streams
// in a scope, starting at each stream's head. Later members joining with
// the same name share the group's state.
func (s *System) NewReaderGroup(name, scope string, streams ...string) (*ReaderGroup, error) {
	if len(streams) == 0 {
		return nil, fmt.Errorf("pravega: reader group %q needs at least one stream", name)
	}
	rg := &ReaderGroup{
		sys:     s,
		name:    name,
		scope:   scope,
		streams: streams,
		conn:    s.data,
		state:   newRGState(),
	}
	// The group's coordination state lives in a dedicated segment.
	rg.stateSeg = fmt.Sprintf("%s/_readergroup-%s/0.#epoch.0", scope, name)
	if err := rg.conn.CreateSegment(rg.stateSeg); err != nil {
		// Another member may have created it already; that's joining.
		if !isExists(err) {
			return nil, err
		}
	}
	rg.sync = statesync.New(&segmentBacking{conn: rg.conn, segment: rg.stateSeg}, rg.apply)

	// Seed the group with every stream's head segments (idempotent: apply
	// ignores segments it already knows).
	var segs []rgSegment
	for _, stream := range streams {
		heads, err := s.client.GetHeadSegments(scope, stream)
		if err != nil {
			return nil, err
		}
		for _, h := range heads {
			segs = append(segs, rgSegment{
				Number:      h.Segment.ID.Number,
				Stream:      stream,
				Qualified:   h.Segment.ID.QualifiedName(),
				StartOffset: h.StartOffset,
			})
		}
	}
	err := rg.sync.Update(func() ([]byte, error) {
		rg.mu.Lock()
		known := len(rg.state.segInfo) > 0
		rg.mu.Unlock()
		if known {
			return nil, nil // someone initialized already
		}
		return json.Marshal(rgUpdate{Op: "init", Segments: segs})
	})
	if err != nil {
		return nil, err
	}
	return rg, nil
}

// isExists reports whether err means "segment already exists" — joining an
// existing group (or table) is not an error.
func isExists(err error) bool {
	return errors.Is(err, segstore.ErrSegmentExists)
}

// segmentBacking adapts one segment of a data transport to the state
// synchronizer (reader groups and KV tables).
type segmentBacking struct {
	conn    client.DataTransport
	segment string
}

func (b *segmentBacking) AppendConditional(data []byte, expectedOffset int64) (int64, error) {
	return b.conn.AppendConditional(b.segment, data, expectedOffset)
}

func (b *segmentBacking) Read(offset int64, maxBytes int) ([]byte, error) {
	res, err := b.conn.ReadCtx(context.Background(), b.segment, offset, maxBytes, 0)
	if err != nil {
		return nil, err
	}
	return res.Data, nil
}

// apply is the deterministic state machine (invoked by the synchronizer in
// total order).
func (rg *ReaderGroup) apply(update []byte) {
	var u rgUpdate
	if err := json.Unmarshal(update, &u); err != nil {
		return // never happens for updates we wrote; ignore garbage
	}
	rg.mu.Lock()
	defer rg.mu.Unlock()
	st := &rg.state
	switch u.Op {
	case "init":
		for _, sgm := range u.Segments {
			if _, ok := st.segInfo[sgm.Qualified]; !ok {
				st.segInfo[sgm.Qualified] = sgm
				st.unassigned[sgm.Qualified] = true
			}
		}
	case "addReader":
		st.readers[u.Reader] = true
	case "removeReader":
		delete(st.readers, u.Reader)
		for seg, r := range st.assigned {
			if r == u.Reader {
				delete(st.assigned, seg)
				st.unassigned[seg] = true
			}
		}
	case "acquire":
		if st.unassigned[u.Segment] {
			delete(st.unassigned, u.Segment)
			st.assigned[u.Segment] = u.Reader
		}
	case "release":
		if st.assigned[u.Segment] == u.Reader {
			delete(st.assigned, u.Segment)
			info := st.segInfo[u.Segment]
			if u.Offset > info.StartOffset {
				info.StartOffset = u.Offset
				st.segInfo[u.Segment] = info
			}
			st.unassigned[u.Segment] = true
		}
	case "complete":
		if st.completed[u.Segment] {
			return
		}
		st.completed[u.Segment] = true
		delete(st.assigned, u.Segment)
		delete(st.unassigned, u.Segment)
		for _, sgm := range u.Segments {
			if _, ok := st.segInfo[sgm.Qualified]; ok {
				continue
			}
			st.segInfo[sgm.Qualified] = sgm
			st.pending[sgm.Qualified] = true
		}
		// Promote pending successors whose predecessors are all done —
		// the scale-down barrier of §3.3.
		for seg := range st.pending {
			info := st.segInfo[seg]
			ready := true
			for _, p := range info.Preds {
				if !st.completed[p] {
					ready = false
					break
				}
			}
			if ready {
				delete(st.pending, seg)
				st.unassigned[seg] = true
			}
		}
	}
}

// snapshot returns copies of the assignment view (under the group lock).
func (rg *ReaderGroup) snapshot() (assigned map[string]string, unassigned []string, readers int) {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	assigned = make(map[string]string, len(rg.state.assigned))
	for k, v := range rg.state.assigned {
		assigned[k] = v
	}
	for k := range rg.state.unassigned {
		unassigned = append(unassigned, k)
	}
	return assigned, unassigned, len(rg.state.readers)
}

func (rg *ReaderGroup) segmentRecord(qualified string) (rgSegment, bool) {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	s, ok := rg.state.segInfo[qualified]
	return s, ok
}

// Name returns the group's name.
func (rg *ReaderGroup) Name() string { return rg.name }

// Streams returns the streams the group consumes.
func (rg *ReaderGroup) Streams() []string { return append([]string(nil), rg.streams...) }

// UnreadSegments reports how many known segments are not yet completed
// (diagnostics/tests).
func (rg *ReaderGroup) UnreadSegments() int {
	if err := rg.sync.Fetch(); err != nil {
		return -1
	}
	rg.mu.Lock()
	defer rg.mu.Unlock()
	return len(rg.state.segInfo) - len(rg.state.completed)
}

// completeSegment posts a completion with the segment's successors fetched
// from the controller (§3.3's reader-controller interaction).
func (rg *ReaderGroup) completeSegment(rec rgSegment) error {
	succs, err := rg.sys.client.GetSuccessors(rg.scope, rec.Stream, rec.Number)
	if err != nil {
		return err
	}
	segs := make([]rgSegment, 0, len(succs))
	for _, sr := range succs {
		preds := make([]string, 0, len(sr.Predecessors))
		for _, p := range sr.Predecessors {
			pid := segment.ID{Scope: rg.scope, Stream: rec.Stream, Number: p}
			preds = append(preds, pid.QualifiedName())
		}
		segs = append(segs, rgSegment{
			Number:    sr.Segment.ID.Number,
			Stream:    rec.Stream,
			Qualified: sr.Segment.ID.QualifiedName(),
			Preds:     preds,
		})
	}
	return rg.sync.Update(func() ([]byte, error) {
		rg.mu.Lock()
		done := rg.state.completed[rec.Qualified]
		rg.mu.Unlock()
		if done {
			return nil, nil
		}
		return json.Marshal(rgUpdate{Op: "complete", Segment: rec.Qualified, Segments: segs})
	})
}
