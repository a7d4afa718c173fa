package placement

import (
	"context"
	"time"

	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/segment"
	"github.com/pravega-go/pravega/internal/segstore"
)

// Local is the direct Store transport: calls on a segstore.Store in this
// process. A store role serves it over the wire. A request for a container
// the store doesn't host fails with segstore.ErrWrongContainer, which the
// router — and the wire protocol's error code — treat as a wrong-host miss.
type Local struct {
	St *segstore.Store
}

var _ Store = Local{}

// AppendAfter enqueues synchronously, preserving the caller's FIFO order
// into the container's applier, which delivers cb — no goroutine or channel
// per append. The container keeps data by reference (its WAL frame and
// tiering queue): the wire server hands it a message body of its own.
func (l Local) AppendAfter(name string, data []byte, writerID string, prev, eventNum int64, eventCount int32, cb func(segstore.AppendResult)) {
	c, err := l.St.Container(name)
	if err != nil {
		cb(segstore.AppendResult{Offset: -1, Err: err})
		return
	}
	c.AppendAfterFunc(name, data, writerID, prev, eventNum, eventCount, cb)
}

func (l Local) AppendConditional(name string, data []byte, expectedOffset int64) (int64, error) {
	c, err := l.St.Container(name)
	if err != nil {
		return 0, err
	}
	return c.AppendConditional(name, data, expectedOffset)
}

func (l Local) ReadCtx(ctx context.Context, name string, offset int64, maxBytes int, wait time.Duration) (segstore.ReadResult, error) {
	c, err := l.St.Container(name)
	if err != nil {
		return segstore.ReadResult{}, err
	}
	return c.ReadCtx(ctx, name, offset, maxBytes, wait)
}

func (l Local) GetInfo(name string) (segment.Info, error) {
	c, err := l.St.Container(name)
	if err != nil {
		return segment.Info{}, err
	}
	return c.GetInfo(name)
}

func (l Local) WriterState(name, writerID string) (int64, error) {
	c, err := l.St.Container(name)
	if err != nil {
		return -1, err
	}
	return c.WriterState(name, writerID)
}

func (l Local) CreateSegment(name string) error {
	c, err := l.St.Container(name)
	if err != nil {
		return err
	}
	return c.CreateSegment(name)
}

func (l Local) SealSegment(name string) (int64, error) {
	c, err := l.St.Container(name)
	if err != nil {
		return 0, err
	}
	return c.Seal(name)
}

func (l Local) TruncateSegment(name string, offset int64) error {
	c, err := l.St.Container(name)
	if err != nil {
		return err
	}
	return c.Truncate(name, offset)
}

func (l Local) DeleteSegment(name string) error {
	c, err := l.St.Container(name)
	if err != nil {
		return err
	}
	return c.DeleteSegment(name)
}

// MergeSegment resolves the target's container: a transaction's shadow
// segment routes with its parent, so both share it.
func (l Local) MergeSegment(target, source string) (int64, error) {
	c, err := l.St.Container(target)
	if err != nil {
		return 0, err
	}
	return c.MergeSegment(target, source)
}

func (l Local) LoadReport() ([]segstore.SegmentLoad, error) { return l.St.LoadReport(), nil }

// Close is a no-op: whoever assembled the store owns its lifetime.
func (l Local) Close() {}

// CoordSource reads placement from the claim set in the coordination store:
// container claims name their owner, live-host registrations carry each
// owner's advertised address, and the epoch node's version counts claim
// changes. Hosts and their claims share a session, so a dead store's
// address and its claims vanish together.
type CoordSource struct {
	Coord cluster.Coord
	Total int // cluster-wide container count
}

func (s CoordSource) Snapshot() (Snapshot, error) {
	// Epoch first: a claim change racing the reads below then leaves the
	// table stamped older than its contents, and the watch refreshes again.
	epoch := segstore.PlacementEpoch(s.Coord)
	// Hosts before claims: a store registers before it claims, and its
	// session drops both at once, so a claim read here finds its host's
	// address — empty only where the host advertised none.
	_, addrs, err := segstore.LiveHosts(s.Coord)
	if err != nil {
		return Snapshot{}, err
	}
	claims, err := segstore.ClaimedContainers(s.Coord)
	if err != nil {
		return Snapshot{}, err
	}
	owner := make(map[int]Endpoint, len(claims))
	for id, host := range claims {
		owner[id] = Endpoint{ID: host, Addr: addrs[host]}
	}
	return Snapshot{Epoch: epoch, Total: s.Total, Owner: owner}, nil
}

func (s CoordSource) WaitEpoch(known int64, stop <-chan struct{}) (int64, error) {
	// Arm first, then compare: a bump racing the arm is seen, never lost.
	ch, err := segstore.WatchPlacementEpoch(s.Coord)
	if err != nil {
		return 0, err
	}
	if cur := segstore.PlacementEpoch(s.Coord); cur > known {
		return cur, nil
	}
	select {
	case <-ch:
	case <-stop:
	}
	return segstore.PlacementEpoch(s.Coord), nil
}
