package controller

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/keyspace"
	"github.com/pravega-go/pravega/internal/segment"
	"github.com/pravega-go/pravega/internal/segstore"
)

// Errors returned by the controller.
var (
	ErrScopeExists    = errors.New("controller: scope already exists")
	ErrScopeNotFound  = errors.New("controller: scope not found")
	ErrStreamExists   = errors.New("controller: stream already exists")
	ErrStreamNotFound = errors.New("controller: stream not found")
	ErrStreamSealed   = errors.New("controller: stream is sealed")
	ErrBadScale       = errors.New("controller: invalid scale request")
)

// DataPlane is the controller's view of the segment stores: operations are
// routed by qualified segment name. placement.Router satisfies it over
// either per-store transport (direct calls in process, the wire protocol
// from the coord process).
type DataPlane interface {
	CreateSegment(name string) error
	SealSegment(name string) (int64, error)
	TruncateSegment(name string, offset int64) error
	DeleteSegment(name string) error
	// MergeSegment atomically appends the (sealed) source segment's bytes
	// to the target and deletes the source — the commit primitive for
	// transaction segments (§3.2) — returning the target offset where the
	// merged bytes begin. A source whose target hashes to another container
	// (commit after a scale) is copied and deleted instead; readers still
	// observe all of its bytes or none.
	MergeSegment(target, source string) (int64, error)
	GetInfo(name string) (segment.Info, error)
	// LoadReports aggregates per-segment ingest rates (§3.1).
	LoadReports() []segstore.SegmentLoad
}

// Config parameterizes a controller instance.
type Config struct {
	// Data is the data plane.
	Data DataPlane
	// Cluster persists stream metadata across controller restarts. (The
	// paper stores stream metadata in Pravega-backed key-value tables; we
	// persist through the coordination store instead and document the
	// substitution in DESIGN.md.)
	Cluster *cluster.Store
	// ScaleCooldown is the minimum interval between scale events on one
	// stream (hysteresis; Pravega uses multi-minute windows, scaled down
	// here).
	ScaleCooldown time.Duration
}

// Controller is the control-plane instance.
type Controller struct {
	cfg Config

	mu      sync.Mutex
	scopes  map[string]struct{}
	streams map[string]*streamState

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

const streamsRoot = "/pravega/streams"

// New creates a controller, reloading persisted stream metadata.
func New(cfg Config) (*Controller, error) {
	if cfg.Data == nil {
		return nil, errors.New("controller: DataPlane is required")
	}
	if cfg.ScaleCooldown <= 0 {
		cfg.ScaleCooldown = 2 * time.Second
	}
	c := &Controller{
		cfg:     cfg,
		scopes:  make(map[string]struct{}),
		streams: make(map[string]*streamState),
		stop:    make(chan struct{}),
	}
	if cfg.Cluster != nil {
		if err := c.reload(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Close stops the policy loops.
func (c *Controller) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
}

// CreateScope registers a stream namespace (§2.1).
func (c *Controller) CreateScope(scope string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.scopes[scope]; ok {
		return fmt.Errorf("%w: %s", ErrScopeExists, scope)
	}
	c.scopes[scope] = struct{}{}
	return nil
}

// CreateStream creates a stream with InitialSegments parallel segments
// whose ranges evenly partition the key space.
func (c *Controller) CreateStream(cfg StreamConfig) error {
	if err := cfg.defaults(); err != nil {
		return err
	}
	c.mu.Lock()
	if _, ok := c.scopes[cfg.Scope]; !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrScopeNotFound, cfg.Scope)
	}
	key := scopedName(cfg.Scope, cfg.Name)
	if _, ok := c.streams[key]; ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrStreamExists, key)
	}
	st := &streamState{
		cfg:      cfg,
		segments: make(map[int64]*SegmentRecord),
		head:     make(StreamCut),
	}
	ranges := keyspace.FullRange().Split(cfg.InitialSegments)
	for _, r := range ranges {
		num := segment.MakeNumber(0, st.nextSeq)
		st.nextSeq++
		id := segment.ID{Scope: cfg.Scope, Stream: cfg.Name, Number: num}
		st.segments[num] = &SegmentRecord{ID: id, KeyRange: r}
		st.active = append(st.active, num)
	}
	c.streams[key] = st
	c.mu.Unlock()

	names := make([]string, 0, len(st.active))
	c.mu.Lock()
	for _, n := range st.active {
		names = append(names, st.segments[n].ID.QualifiedName())
	}
	c.mu.Unlock()
	if err := c.createSegments(names); err != nil {
		return fmt.Errorf("controller: creating segment: %w", err)
	}
	return c.persist(key)
}

// createSegments creates data-plane segments with bounded concurrency:
// large streams (the paper evaluates up to 5 000 segments, §5.6) would pay
// a WAL round trip per segment if created serially.
func (c *Controller) createSegments(names []string) error {
	const workers = 16
	sem := make(chan struct{}, workers)
	errCh := make(chan error, len(names))
	for _, qn := range names {
		qn := qn
		sem <- struct{}{}
		go func() {
			defer func() { <-sem }()
			errCh <- c.cfg.Data.CreateSegment(qn)
		}()
	}
	for range names {
		if err := <-errCh; err != nil {
			return err
		}
	}
	return nil
}

func (c *Controller) stream(scope, name string) (*streamState, error) {
	st, ok := c.streams[scopedName(scope, name)]
	if !ok || st.deleted {
		return nil, fmt.Errorf("%w: %s/%s", ErrStreamNotFound, scope, name)
	}
	return st, nil
}

// GetActiveSegments returns the open segments writers may append to, with
// their key ranges.
func (c *Controller) GetActiveSegments(scope, name string) ([]SegmentWithRange, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, err := c.stream(scope, name)
	if err != nil {
		return nil, err
	}
	return st.activeSegments(), nil
}

// SuccessorRecord describes one successor of a sealed segment along with
// the predecessors a reader must finish before starting it (§3.3).
type SuccessorRecord struct {
	Segment      SegmentWithRange
	Predecessors []int64
}

// GetSuccessors returns the successors of a (sealed) segment. An empty
// result for a sealed segment means the stream itself was sealed.
func (c *Controller) GetSuccessors(scope, name string, segNumber int64) ([]SuccessorRecord, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, err := c.stream(scope, name)
	if err != nil {
		return nil, err
	}
	rec, ok := st.segments[segNumber]
	if !ok {
		return nil, fmt.Errorf("controller: unknown segment %d in %s/%s", segNumber, scope, name)
	}
	out := make([]SuccessorRecord, 0, len(rec.Successors))
	for _, sn := range rec.Successors {
		succ := st.segments[sn]
		if succ == nil {
			continue
		}
		out = append(out, SuccessorRecord{
			Segment:      SegmentWithRange{ID: succ.ID, KeyRange: succ.KeyRange},
			Predecessors: append([]int64(nil), succ.Predecessors...),
		})
	}
	return out, nil
}

// IsStreamSealed reports whether the whole stream was sealed (no further
// appends anywhere; sealed segments have no successors).
func (c *Controller) IsStreamSealed(scope, name string) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, err := c.stream(scope, name)
	if err != nil {
		return false, err
	}
	return st.sealed, nil
}

// HeadSegment pairs a head segment with the offset reading should start at
// (0, or the truncation point after retention).
type HeadSegment struct {
	Segment     SegmentWithRange
	StartOffset int64
}

// GetHeadSegments returns the stream's earliest retained segments — the
// starting point for a reader group consuming the full history (§3.3).
func (c *Controller) GetHeadSegments(scope, name string) ([]HeadSegment, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, err := c.stream(scope, name)
	if err != nil {
		return nil, err
	}
	var out []HeadSegment
	for n, rec := range st.segments {
		// A head segment has no retained predecessors.
		head := true
		for _, p := range rec.Predecessors {
			if _, ok := st.segments[p]; ok {
				head = false
				break
			}
		}
		if !head {
			continue
		}
		hs := HeadSegment{Segment: SegmentWithRange{ID: rec.ID, KeyRange: rec.KeyRange}}
		if off, ok := st.head[n]; ok {
			hs.StartOffset = off
		}
		out = append(out, hs)
	}
	return out, nil
}

// StreamConfigOf returns the stream's configuration.
func (c *Controller) StreamConfigOf(scope, name string) (StreamConfig, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, err := c.stream(scope, name)
	if err != nil {
		return StreamConfig{}, err
	}
	return st.cfg, nil
}

// UpdateStreamPolicies replaces the stream's scaling and retention
// policies (policies are updatable along the stream life-cycle, §2.1).
func (c *Controller) UpdateStreamPolicies(scope, name string, scaling *ScalingPolicy, retention *RetentionPolicy) error {
	c.mu.Lock()
	st, err := c.stream(scope, name)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	if scaling != nil {
		st.cfg.Scaling = *scaling
		if st.cfg.Scaling.ScaleFactor <= 1 {
			st.cfg.Scaling.ScaleFactor = 2
		}
		if st.cfg.Scaling.MinSegments <= 0 {
			st.cfg.Scaling.MinSegments = 1
		}
	}
	if retention != nil {
		st.cfg.Retention = *retention
	}
	key := scopedName(scope, name)
	c.mu.Unlock()
	return c.persist(key)
}

// Scale seals the given active segments and replaces them with new segments
// covering newRanges. The ranges must exactly partition the union of the
// sealed segments' ranges (§3.1: split on scale-up, merge of adjacent
// ranges on scale-down). New segments are created on the data plane
// *before* predecessors are sealed, and writers only learn successors after
// sealing — so no append reaches a successor before its predecessor is
// sealed (Fig. 2b).
func (c *Controller) Scale(scope, name string, seal []int64, newRanges []keyspace.Range) error {
	c.mu.Lock()
	st, err := c.stream(scope, name)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	if st.sealed {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s/%s", ErrStreamSealed, scope, name)
	}
	// Validate the seal set.
	sealSet := make(map[int64]bool, len(seal))
	var sealedRanges []keyspace.Range
	for _, n := range seal {
		rec, ok := st.segments[n]
		if !ok || rec.Sealed {
			c.mu.Unlock()
			return fmt.Errorf("%w: segment %d not active", ErrBadScale, n)
		}
		if sealSet[n] {
			c.mu.Unlock()
			return fmt.Errorf("%w: duplicate segment %d", ErrBadScale, n)
		}
		sealSet[n] = true
		sealedRanges = append(sealedRanges, rec.KeyRange)
	}
	if err := rangesPartitionUnion(sealedRanges, newRanges); err != nil {
		c.mu.Unlock()
		return fmt.Errorf("%w: %v", ErrBadScale, err)
	}
	// Allocate the new epoch's segments.
	st.epoch++
	created := make([]*SegmentRecord, 0, len(newRanges))
	for _, r := range newRanges {
		num := segment.MakeNumber(st.epoch, st.nextSeq)
		st.nextSeq++
		id := segment.ID{Scope: scope, Stream: name, Number: num}
		rec := &SegmentRecord{ID: id, KeyRange: r}
		// Predecessors: every sealed segment overlapping the new range.
		for _, sn := range seal {
			if st.segments[sn].KeyRange.Overlaps(r) {
				rec.Predecessors = append(rec.Predecessors, sn)
			}
		}
		st.segments[num] = rec
		created = append(created, rec)
	}
	st.lastScale = time.Now()
	c.mu.Unlock()

	// 1. Create successors on the data plane.
	succNames := make([]string, len(created))
	for i, rec := range created {
		succNames[i] = rec.ID.QualifiedName()
	}
	if err := c.createSegments(succNames); err != nil {
		return fmt.Errorf("controller: creating successor: %w", err)
	}
	// 2. Seal predecessors (no further appends, Fig. 2b).
	for _, n := range seal {
		c.mu.Lock()
		qn := st.segments[n].ID.QualifiedName()
		c.mu.Unlock()
		if _, err := c.cfg.Data.SealSegment(qn); err != nil {
			return fmt.Errorf("controller: sealing predecessor: %w", err)
		}
	}
	// 3. Publish the new epoch.
	c.mu.Lock()
	for _, n := range seal {
		rec := st.segments[n]
		rec.Sealed = true
		for _, nr := range created {
			if rec.KeyRange.Overlaps(nr.KeyRange) {
				rec.Successors = append(rec.Successors, nr.ID.Number)
			}
		}
	}
	newActive := st.active[:0:0]
	for _, n := range st.active {
		if !sealSet[n] {
			newActive = append(newActive, n)
		}
	}
	for _, rec := range created {
		newActive = append(newActive, rec.ID.Number)
	}
	st.active = newActive
	key := scopedName(scope, name)
	c.mu.Unlock()
	return c.persist(key)
}

// rangesPartitionUnion verifies that newRanges exactly cover the union of
// old (both sets must individually be contiguous).
func rangesPartitionUnion(old, newR []keyspace.Range) error {
	if len(old) == 0 || len(newR) == 0 {
		return errors.New("empty range set")
	}
	sortRanges(old)
	sortRanges(newR)
	for i := 0; i+1 < len(old); i++ {
		if old[i].High != old[i+1].Low {
			return fmt.Errorf("sealed ranges not contiguous at %v|%v", old[i], old[i+1])
		}
	}
	for i := 0; i+1 < len(newR); i++ {
		if newR[i].High != newR[i+1].Low {
			return fmt.Errorf("new ranges not contiguous at %v|%v", newR[i], newR[i+1])
		}
	}
	if old[0].Low != newR[0].Low || old[len(old)-1].High != newR[len(newR)-1].High {
		return fmt.Errorf("new ranges cover %v..%v, sealed cover %v..%v",
			newR[0].Low, newR[len(newR)-1].High, old[0].Low, old[len(old)-1].High)
	}
	return nil
}

func sortRanges(rs []keyspace.Range) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].Low < rs[j-1].Low; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// SealStream seals every active segment and marks the stream read-only.
func (c *Controller) SealStream(scope, name string) error {
	c.mu.Lock()
	st, err := c.stream(scope, name)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	st.sealed = true
	segs := make([]string, 0, len(st.active))
	for _, n := range st.active {
		st.segments[n].Sealed = true
		segs = append(segs, st.segments[n].ID.QualifiedName())
	}
	key := scopedName(scope, name)
	c.mu.Unlock()
	for _, qn := range segs {
		if _, err := c.cfg.Data.SealSegment(qn); err != nil {
			return err
		}
	}
	return c.persist(key)
}

// TruncateStream advances the stream's head to the given cut: segments
// entirely before the frontier are deleted, segments on the frontier are
// truncated at their cut offsets (§2.1).
func (c *Controller) TruncateStream(scope, name string, cut StreamCut) error {
	c.mu.Lock()
	st, err := c.stream(scope, name)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	// Segments strictly before the frontier: reverse-reachable from cut
	// segments via predecessor edges.
	before := make(map[int64]bool)
	var frontier []int64
	for n := range cut {
		frontier = append(frontier, n)
	}
	for len(frontier) > 0 {
		n := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		rec, ok := st.segments[n]
		if !ok {
			continue
		}
		for _, p := range rec.Predecessors {
			if !before[p] {
				before[p] = true
				frontier = append(frontier, p)
			}
		}
	}
	var toDelete []string
	var toDeleteNums []int64
	for n := range before {
		if _, inCut := cut[n]; inCut {
			continue
		}
		if rec, ok := st.segments[n]; ok && rec.Sealed {
			toDelete = append(toDelete, rec.ID.QualifiedName())
			toDeleteNums = append(toDeleteNums, n)
		}
	}
	type trunc struct {
		qn  string
		off int64
	}
	var toTruncate []trunc
	for n, off := range cut {
		if rec, ok := st.segments[n]; ok {
			toTruncate = append(toTruncate, trunc{rec.ID.QualifiedName(), off})
		}
	}
	key := scopedName(scope, name)
	c.mu.Unlock()

	for _, t := range toTruncate {
		if err := c.cfg.Data.TruncateSegment(t.qn, t.off); err != nil {
			return err
		}
	}
	for _, qn := range toDelete {
		if err := c.cfg.Data.DeleteSegment(qn); err != nil {
			return err
		}
	}
	c.mu.Lock()
	for _, n := range toDeleteNums {
		delete(st.segments, n)
	}
	for n, off := range cut {
		if cur, ok := st.head[n]; !ok || off > cur {
			st.head[n] = off
		}
	}
	// Drop head entries for segments that no longer exist.
	for n := range st.head {
		if _, ok := st.segments[n]; !ok {
			delete(st.head, n)
		}
	}
	c.mu.Unlock()
	return c.persist(key)
}

// DeleteStream removes a (sealed) stream and all its segments.
func (c *Controller) DeleteStream(scope, name string) error {
	c.mu.Lock()
	st, err := c.stream(scope, name)
	if err != nil {
		c.mu.Unlock()
		return err
	}
	if !st.sealed {
		c.mu.Unlock()
		return fmt.Errorf("controller: stream %s/%s must be sealed before deletion", scope, name)
	}
	st.deleted = true
	var segs []string
	for _, rec := range st.segments {
		segs = append(segs, rec.ID.QualifiedName())
	}
	key := scopedName(scope, name)
	delete(c.streams, key)
	c.mu.Unlock()
	for _, qn := range segs {
		if err := c.cfg.Data.DeleteSegment(qn); err != nil && !errors.Is(err, segstore.ErrSegmentNotFound) {
			return err
		}
	}
	if c.cfg.Cluster != nil {
		_ = c.cfg.Cluster.Delete(streamsRoot+"/"+flatten(key), -1)
	}
	return nil
}

// persistedStream is the JSON shape stored in the coordination service.
type persistedStream struct {
	Config   StreamConfig             `json:"config"`
	Epoch    int32                    `json:"epoch"`
	NextSeq  int32                    `json:"nextSeq"`
	Sealed   bool                     `json:"sealed"`
	Segments map[int64]*SegmentRecord `json:"segments"`
	Active   []int64                  `json:"active"`
	Head     StreamCut                `json:"head"`
	Txns     map[string]*TxnRecord    `json:"txns,omitempty"`
}

func flatten(key string) string {
	out := make([]byte, len(key))
	for i := 0; i < len(key); i++ {
		if key[i] == '/' {
			out[i] = '~'
		} else {
			out[i] = key[i]
		}
	}
	return string(out)
}

func (c *Controller) persist(key string) error {
	if c.cfg.Cluster == nil {
		return nil
	}
	c.mu.Lock()
	st, ok := c.streams[key]
	if !ok {
		c.mu.Unlock()
		return nil
	}
	p := persistedStream{
		Config:   st.cfg,
		Epoch:    st.epoch,
		NextSeq:  st.nextSeq,
		Sealed:   st.sealed,
		Segments: st.segments,
		Active:   st.active,
		Head:     st.head,
		Txns:     st.txns,
	}
	data, err := json.Marshal(p)
	c.mu.Unlock()
	if err != nil {
		return err
	}
	path := streamsRoot + "/" + flatten(key)
	if err := c.cfg.Cluster.CreateAll(path, data); !errors.Is(err, cluster.ErrNodeExists) {
		return err
	}
	_, err = c.cfg.Cluster.Set(path, data, -1)
	return err
}

// reload loads every persisted stream node into a new controller, so a
// restarted coord picks up where the last one stopped.
func (c *Controller) reload() error {
	names, err := c.cfg.Cluster.Children(streamsRoot)
	if errors.Is(err, cluster.ErrNoNode) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, node := range names {
		data, _, err := c.cfg.Cluster.Get(streamsRoot + "/" + node)
		if err != nil {
			return err
		}
		var p persistedStream
		if err := json.Unmarshal(data, &p); err != nil {
			return fmt.Errorf("controller: decoding stream %s: %w", node, err)
		}
		st := &streamState{
			cfg:      p.Config,
			epoch:    p.Epoch,
			nextSeq:  p.NextSeq,
			sealed:   p.Sealed,
			segments: p.Segments,
			active:   p.Active,
			head:     p.Head,
			txns:     p.Txns,
		}
		if st.segments == nil {
			st.segments = make(map[int64]*SegmentRecord)
		}
		if st.head == nil {
			st.head = make(StreamCut)
		}
		c.scopes[p.Config.Scope] = struct{}{}
		c.streams[scopedName(p.Config.Scope, p.Config.Name)] = st
	}
	return nil
}
