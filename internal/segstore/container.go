package segstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pravega-go/pravega/internal/blockcache"
	"github.com/pravega-go/pravega/internal/obs"
	"github.com/pravega-go/pravega/internal/readahead"
	"github.com/pravega-go/pravega/internal/readindex"
	"github.com/pravega-go/pravega/internal/segment"
	"github.com/pravega-go/pravega/internal/wal"
)

// Errors returned by container operations.
var (
	ErrSegmentExists     = errors.New("segstore: segment already exists")
	ErrSegmentNotFound   = errors.New("segstore: segment not found")
	ErrSegmentSealed     = errors.New("segstore: segment is sealed")
	ErrSegmentTruncated  = errors.New("segstore: offset below truncation point")
	ErrContainerDown     = errors.New("segstore: container is shut down")
	ErrConditionalFailed = errors.New("segstore: conditional append check failed")
	ErrWrongContainer    = errors.New("segstore: segment maps to a different container")
	ErrReadTimeout       = errors.New("segstore: tail read timed out")
	ErrNoReadSource      = errors.New("segstore: no source for read")
	ErrSegmentNotSealed  = errors.New("segstore: segment is not sealed")
	// ErrOutOfOrder rejects, unapplied, an append whose predecessor from the
	// same writer has not been sequenced on the segment (Operation.Prev).
	ErrOutOfOrder = errors.New("segstore: append's predecessor not applied")
)

// flushItem is applied-but-not-yet-tiered append data awaiting the storage
// writer.
type flushItem struct {
	addr   wal.Address
	offset int64
	data   []byte
}

// segState is the container's in-memory state for one segment.
type segState struct {
	name          string
	sealed        bool
	length        int64 // durable length (all acked appends)
	pendingLength int64 // includes assigned, not-yet-acked appends
	startOffset   int64 // truncation point
	storageLength int64 // prefix safely in LTS
	// incarnation names this life of the segment in its chunk names: the
	// WAL address of its create, so a segment re-created under a deleted
	// one's name never finds that one's leftover chunks.
	incarnation string
	attributes  segment.Attributes
	// attrPending tracks writer event numbers at validation time, ahead of
	// attributes (which advance only when the frame is applied). The
	// frame builder consults both, so a retry racing its queued original
	// is classified as a duplicate instead of being applied twice (§3.2).
	attrPending segment.Attributes
	index       *readindex.Index
	chunks      []chunkMeta
	unflushed   []flushItem
	waiters     []chan struct{}
	pendingSeal bool
	// pendingMerge marks a sealed segment with a merge-segment operation in
	// flight: a second merge of the same source is rejected at validation.
	pendingMerge bool
	// pendingDelete marks a segment with a delete in flight: an operation
	// sequenced after it would find the segment gone when applied, so
	// validation rejects it as not found.
	pendingDelete bool
	meter         *obs.RateMeter
}

// chunkMeta locates one LTS chunk of a segment (§4.3). The list is ordered
// and the chunks are non-overlapping and contiguous; an entry is recorded
// only once its LTS object exists.
type chunkMeta struct {
	Name        string `json:"name"`
	StartOffset int64  `json:"startOffset"`
	Length      int64  `json:"length"`
}

// checkpointState is the serialized container metadata snapshot (§4.4).
type checkpointState struct {
	Segments map[string]checkpointSegment `json:"segments"`
}

type checkpointSegment struct {
	Sealed        bool               `json:"sealed"`
	Length        int64              `json:"length"`
	StartOffset   int64              `json:"startOffset"`
	StorageLength int64              `json:"storageLength"`
	Incarnation   string             `json:"incarnation"`
	Attributes    segment.Attributes `json:"attributes"`
	Chunks        []chunkMeta        `json:"chunks"`
}

// Container is one segment container: the unit of data-plane ownership.
type Container struct {
	cfg   ContainerConfig
	log   *wal.Log
	cache *blockcache.Cache
	ra    *readahead.Prefetcher // nil when readahead is disabled

	mu       sync.Mutex
	segments map[string]*segState
	// evictStalled: the last eviction pass found nothing to free (see
	// evictLocked). Guarded by mu.
	evictStalled bool
	down         bool
	downErr      error
	downFlag     atomic.Bool // mirrors down for lock-free checks
	crashed      atomic.Bool // abrupt stop: skip apply/flush side effects

	// Operation pipeline.
	opQueue  chan *pendingOp
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// Frame completion: WAL callbacks enqueue acknowledged frames here and
	// kick the single applier goroutine, which reorders by frame sequence
	// and applies in order. framesSubmitted is written only by the frame
	// builder; the applier reads it to know when a shutdown drain is done,
	// which is only once built is closed, when the builder has returned.
	framesSubmitted atomic.Int64
	built           chan struct{}
	applyMu         sync.Mutex
	applyQ          []*frameResult
	applyKick       chan struct{}
	// lastApplied is the WAL address of the most recent frame the applier
	// has fully installed (guarded by c.mu). Checkpoint captures it as its
	// snapshot's coverage watermark: every frame at or below it is
	// reflected in the snapshot; frames above it may not be.
	lastApplied    wal.Address
	hasLastApplied bool
	// metaChanges counts the changes a checkpoint captures (guarded by
	// c.mu): applied frames other than checkpoints, and storage-writer
	// commits — so tiering after a checkpoint earns the one more that WAL
	// truncation waits for.
	metaChanges uint64

	// Adaptive batching statistics (EWMA).
	statMu        sync.Mutex
	recentLatency time.Duration
	avgWriteSize  float64

	// Storage-writer bookkeeping. flushRunMu serializes tiering rounds:
	// the background ticker, size-based kicks and FlushAll callers must not
	// interleave within one segment's flush (see activeChunk).
	flushRunMu     sync.Mutex
	flushMu        sync.Mutex
	flushCond      *sync.Cond
	unflushedBytes int64
	lastCheckpoint wal.Address
	hasCheckpoint  bool
	// cpCover bounds WAL truncation for lastCheckpoint: the coverage
	// watermark its snapshot was captured at. Frames between cpCover and
	// the checkpoint frame can hold operations applied after the snapshot —
	// a truncate, seal or writer-attribute update the snapshot predates —
	// so truncation must keep them or an acknowledged operation evaporates
	// on the next recovery. Unset after recovery (the restored snapshot's
	// watermark is unknown) until the next live checkpoint lands.
	cpCover          wal.Address
	cpCoverOK        bool
	flushKick        chan struct{}
	lastFlushErr     error
	lastTruncateErr  error
	throttleWaits    obs.Counter
	framesWritten    obs.Counter
	bytesWritten     obs.Counter
	opsProcessed     obs.Counter
	checkpointsTaken obs.Counter
	flushRounds      obs.Counter
}

const (
	// opQueueLen bounds queued operations (backpressure).
	opQueueLen = 4096
	// loadWindow and loadSlots size the per-segment rate meters that feed
	// auto-scaling reports (§3.1).
	loadWindow = 2 * time.Second
	loadSlots  = 4
)

// NewContainer opens the container, performing recovery: it takes over the
// container's WAL (fencing any previous instance), restores the last
// metadata checkpoint and replays the tail of the log (§4.4).
func NewContainer(cfg ContainerConfig) (*Container, error) {
	cfg.defaults()
	c := &Container{
		cfg:           cfg,
		cache:         blockcache.New(cfg.Cache),
		segments:      make(map[string]*segState),
		opQueue:       make(chan *pendingOp, opQueueLen),
		stop:          make(chan struct{}),
		applyKick:     make(chan struct{}, 1),
		built:         make(chan struct{}),
		flushKick:     make(chan struct{}, 1),
		recentLatency: 2 * time.Millisecond,
	}
	c.flushCond = sync.NewCond(&c.flushMu)

	log, err := wal.Open(wal.Config{
		Name:          fmt.Sprintf("container-%d", cfg.ID),
		Client:        cfg.BK,
		Meta:          cfg.Meta,
		Replication:   cfg.Replication,
		RolloverBytes: cfg.WALRolloverBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("segstore: opening WAL for container %d: %w", cfg.ID, err)
	}
	c.log = log

	if err := c.recover(); err != nil {
		_ = log.Close()
		return nil, fmt.Errorf("segstore: recovering container %d: %w", cfg.ID, err)
	}

	if cfg.ReadAheadDepth >= 0 {
		c.ra = readahead.New(readahead.Config{
			Depth:   cfg.ReadAheadDepth,
			Workers: cfg.MaxReadFanout,
			Fetch:   c.fetchRange,
		})
	}

	c.wg.Add(4)
	go c.frameBuilderLoop()
	go c.applierLoop()
	go c.storageWriterLoop()
	go c.checkpointLoop()
	return c, nil
}

// ID returns the container id.
func (c *Container) ID() int { return c.cfg.ID }

// Epoch returns the container's WAL epoch (its fencing token).
func (c *Container) Epoch() int64 { return c.log.Epoch() }

// newSegState builds an empty in-memory segment record.
func (c *Container) newSegState(name string) *segState {
	return &segState{
		name:        name,
		attributes:  make(segment.Attributes),
		attrPending: make(segment.Attributes),
		index:       readindex.New(),
		meter:       obs.NewRateMeter(loadSlots, loadWindow/loadSlots),
	}
}

// recover rebuilds in-memory state from the WAL (§4.4): restore the last
// checkpoint, then replay the retained log through applyOpLocked, the
// transition the live applier runs.
func (c *Container) recover() error {
	entries, err := c.log.ReadAll()
	if err != nil {
		return err
	}
	// Locate the last checkpoint. The operations' data fields point into
	// the freshly read WAL entries, so replay installs them without a
	// per-operation copy.
	lastCP := -1
	var decoded [][]Operation
	for i, e := range entries {
		ops, err := appendFrameOps(nil, e.Data)
		if err != nil {
			return fmt.Errorf("frame at %v: %w", e.Addr, err)
		}
		decoded = append(decoded, ops)
		for _, op := range ops {
			if op.Type == OpCheckpoint {
				lastCP = i
			}
		}
	}
	if len(entries) > 0 {
		c.metaChanges = 1 // the next live checkpoint restores the truncation watermark
	}
	if lastCP >= 0 {
		for _, op := range decoded[lastCP] {
			if op.Type == OpCheckpoint {
				if err := c.restoreCheckpoint(op.Checkpoint); err != nil {
					return err
				}
			}
		}
		c.flushMu.Lock()
		c.lastCheckpoint = entries[lastCP].Addr
		c.hasCheckpoint = true
		c.flushMu.Unlock()
	}
	// Replay the WHOLE retained log, not just the entries after the last
	// checkpoint: a checkpoint snapshots applied state, but append data that
	// was applied yet not tiered at snapshot time lives only in entries at
	// or before the checkpoint frame (the WAL retains them for exactly this
	// reason, §4.3). applyOpLocked trims each append against the restored
	// storage watermark, so tiered prefixes are skipped and un-tiered tails
	// are re-queued for flushing.
	var queued, released int64
	c.mu.Lock()
	for i := range decoded {
		for j := range decoded[i] {
			r, _ := c.applyOpLocked(&decoded[i][j], entries[i].Addr, nil)
			queued += r.queued
			released += r.released
		}
	}
	// Align pending lengths with recovered durable lengths.
	names := make([]string, 0, len(c.segments))
	for name, s := range c.segments {
		s.pendingLength = s.length
		names = append(names, name)
	}
	c.mu.Unlock()
	if c.settleBacklog(queued, released) {
		c.kickFlush()
	}
	// The checkpoint can trail LTS: chunk writes and chunks made after it
	// are known only to LTS. Reads and WAL truncation need the true
	// watermark, so a container that cannot ask LTS does not start.
	for _, name := range names {
		if err := c.adoptTiered(name); err != nil {
			return err
		}
	}
	return nil
}

func (c *Container) restoreCheckpoint(data []byte) error {
	var cp checkpointState
	if err := json.Unmarshal(data, &cp); err != nil {
		return fmt.Errorf("segstore: decoding checkpoint: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, cs := range cp.Segments {
		if err := validateChunks(name, cs.Chunks, cs.StorageLength); err != nil {
			return fmt.Errorf("segstore: corrupt checkpoint: %w", err)
		}
		s := c.newSegState(name)
		s.sealed = cs.Sealed
		s.length = cs.Length
		s.startOffset = cs.StartOffset
		s.storageLength = cs.StorageLength
		s.incarnation = cs.Incarnation
		s.attributes = cs.Attributes.Clone()
		if s.attributes == nil {
			s.attributes = make(segment.Attributes)
		}
		s.chunks = append([]chunkMeta(nil), cs.Chunks...)
		c.segments[name] = s
	}
	return nil
}

// applied is what one operation's state transition did beyond segment
// state: the op's result offset (an append's or merge's start, a seal's final
// length), the bytes it queued for tiering, and the un-tiered bytes it
// released with a removed segment.
type applied struct{ offset, queued, released int64 }

// applyOpLocked is the container's one state transition (§4.2.1): the live
// applier runs it on each operation of a durable frame and recovery on each
// operation of the retained WAL, so recovery is replay. Callers settle the
// throttle backlog and the flush kick once for many operations. hooks is nil
// in replay: a crash hook that persists across restarts must not fire while
// recovering. torn reports a MidMerge crash request: the target is extended
// and the source still present. Checkpoints are frame bookkeeping and apply
// nothing here. Caller holds c.mu.
func (c *Container) applyOpLocked(op *Operation, addr wal.Address, hooks *Hooks) (r applied, torn bool) {
	s := c.segments[op.Segment]
	switch op.Type {
	case OpCreate:
		if s == nil {
			s = c.newSegState(op.Segment)
			s.incarnation = fmt.Sprintf("%d.%d", addr.LedgerID, addr.Entry)
			c.segments[op.Segment] = s
		}
	case OpAppend, OpMergeSegment:
		if s != nil {
			r.offset = op.Offset
			r.queued = c.applyAppendLocked(s, op, addr)
		}
		if op.Type == OpAppend {
			break
		}
		// Commit-by-merge (§3.2): the source's bytes become contiguous
		// target bytes and the source vanishes, under one c.mu hold —
		// readers and later frames observe either both effects or neither.
		if hooks != nil && hooks.MidMerge != nil && hooks.MidMerge(op.Segment, op.Source) {
			return r, true
		}
		if src := c.segments[op.Source]; src != nil {
			r.released = c.removeSegmentLocked(op.Source, src)
		}
	case OpSeal:
		if s != nil {
			s.sealed, s.pendingSeal = true, false
			r.offset = s.length
			wakeTailReaders(s)
		}
	case OpTruncate:
		if s != nil {
			c.applyTruncateLocked(s, op.TruncateAt)
		}
	case OpDelete:
		if s != nil {
			r.released = c.removeSegmentLocked(op.Segment, s)
		}
	}
	return r, false
}

// settleBacklog adds queued bytes to the un-tiered backlog the throttle
// weighs and takes released ones off it, waking throttled writers. It
// reports whether a queue left the backlog at FlushSizeBytes or more.
func (c *Container) settleBacklog(queued, released int64) (full bool) {
	if queued == 0 && released == 0 {
		return false
	}
	c.flushMu.Lock()
	c.unflushedBytes += queued - released
	full = queued > 0 && c.unflushedBytes >= c.cfg.FlushSizeBytes
	c.flushMu.Unlock()
	mUnflushedBytes.Add(queued - released)
	if released > 0 {
		c.flushCond.Broadcast()
	}
	return full
}

// removeSegmentLocked deletes a segment's in-memory state: tail waiters are
// released, read-index cache entries are reclaimed, LTS chunks are deleted
// asynchronously and the readahead prefetcher is invalidated. It returns
// the segment's un-tiered byte count so the caller can release its share of
// the throttle budget. Caller holds c.mu.
func (c *Container) removeSegmentLocked(name string, s *segState) int64 {
	wakeTailReaders(s)
	var unflushed int64
	for _, it := range s.unflushed {
		unflushed += int64(len(it.data))
	}
	for _, addr := range s.index.TruncateBefore(1 << 62) {
		_ = c.cache.Delete(addr)
	}
	chunks := append([]chunkMeta(nil), s.chunks...)
	delete(c.segments, name)
	if c.ra != nil {
		c.ra.Invalidate(name, -1)
	}
	if len(chunks) > 0 {
		// The caller's goroutine is wg-tracked (applier) or precedes the
		// pipeline start (recovery), so the counter cannot hit zero while
		// this Add runs.
		c.wg.Add(1)
		go c.deleteChunks(chunks)
	}
	return unflushed
}

// applyAppendLocked applies an append's or a merge's bytes: it records the
// writer's attribute (§3.2), installs the bytes above the segment's tiered
// prefix into the read index, cache and flush queue, wakes tail readers, and
// returns how many it queued for tiering. Live nothing is cut, since every
// op is sequenced at or after pendingLength; in replay a tiered prefix is
// skipped, and an op tiered in full updates only the attribute.
func (c *Container) applyAppendLocked(s *segState, op *Operation, addr wal.Address) (queued int64) {
	if op.WriterID != "" {
		if cur, ok := s.attributes[op.WriterID]; !ok || op.EventNum > cur {
			s.attributes[op.WriterID] = op.EventNum
		}
	}
	if len(op.Data) == 0 || op.Offset+int64(len(op.Data)) <= s.storageLength {
		return 0
	}
	if cut := s.storageLength - op.Offset; cut > 0 {
		op.Data, op.Offset = op.Data[cut:], s.storageLength
	}
	queued = int64(len(op.Data))
	c.cacheAppendLocked(s, op.Offset, op.Data)
	s.length = max(s.length, op.Offset+queued)
	s.meter.Record(int64(op.EventCount), queued)
	s.unflushed = append(s.unflushed, flushItem{addr: addr, offset: op.Offset, data: op.Data})
	wakeTailReaders(s)
	return queued
}

// wakeTailReaders releases the segment's tail-read long-polls. Caller holds
// c.mu.
func wakeTailReaders(s *segState) {
	for _, w := range s.waiters {
		close(w)
	}
	s.waiters = nil
}

// maxCacheEntryBytes closes a cache entry (64 blocks of the default size).
// A segment's cached bytes are a run of entries no longer than this, each
// with a read-index record of its own, so that a read walks and an eviction
// frees one short chain, whatever the segment's length (§4.2).
const maxCacheEntryBytes = 256 << 10

// evictShare is the part of each segment's cached bytes one eviction pass
// frees: an eighth, so a full cache runs a pass once per eighth of its size
// appended, not once per append.
const evictShare = 8

// cacheAppendLocked copies data, which starts at the segment offset given,
// into the block cache: first into the room left in the segment's last
// entry, when that entry ends where data begins, then into new entries of at
// most maxCacheEntryBytes each. When the cache cannot take a piece (it is
// full of bytes not yet tiered) that piece and the rest get no index entry;
// reads of them are served from the un-tiered queue, then from LTS.
func (c *Container) cacheAppendLocked(s *segState, offset int64, data []byte) {
	if tail, ok := s.index.TailEntry(); ok && tail.Where == readindex.InCache && tail.End() == offset {
		if n := min(maxCacheEntryBytes-tail.Length, int64(len(data))); n > 0 {
			newAddr, err := c.cache.Append(tail.CacheAddr, data[:n])
			if err == nil {
				s.index.ExtendTail(n, newAddr)
				offset, data = offset+n, data[n:]
			}
			// Else the cache is full: the insert below evicts and tries again.
		}
	}
	for len(data) > 0 {
		n := min(maxCacheEntryBytes, len(data))
		addr, err := c.cache.Insert(data[:n])
		if errors.Is(err, blockcache.ErrCacheFull) && !c.evictStalled {
			c.evictLocked()
			addr, err = c.cache.Insert(data[:n])
		}
		if err != nil {
			return
		}
		s.index.Add(readindex.Entry{
			Offset:    offset,
			Length:    int64(n),
			Where:     readindex.InCache,
			CacheAddr: addr,
		})
		offset, data = offset+int64(n), data[n:]
	}
}

// evictLocked frees, in every segment, the least recently used cached
// entries whose bytes are already in LTS (safe to drop), evictShare of the
// segment's cached bytes at a time. Entries are closed at
// maxCacheEntryBytes, so everything but the newest un-tiered bytes is
// eligible and what stays cached is what was written or read last. A pass
// that frees nothing sets evictStalled: nothing becomes evictable until a
// storage watermark advances (retireCovered clears the flag), so appends
// stop paying for passes until then. Caller holds c.mu.
func (c *Container) evictLocked() {
	evicted := 0
	for _, s := range c.segments {
		for _, addr := range s.index.EvictStalest(s.storageLength, s.index.CachedBytes()/evictShare+1) {
			_ = c.cache.Delete(addr)
			evicted++
		}
	}
	mCacheEvictions.Add(int64(evicted))
	c.evictStalled = evicted == 0
}

func (c *Container) applyTruncateLocked(s *segState, at int64) {
	if at <= s.startOffset {
		return
	}
	s.startOffset = at
	for _, addr := range s.index.TruncateBefore(at) {
		_ = c.cache.Delete(addr)
	}
	if c.ra != nil {
		// Lock order is always c.mu → ra.mu; prefetch fetches take c.mu
		// only from their own goroutines, never under ra.mu.
		c.ra.Invalidate(s.name, at)
	}
}

// failAll shuts the container down after a severe error (§4.4): every
// queued and future operation fails; the caller is expected to restart the
// container, triggering recovery. The stop is abrupt (crash semantics):
// remaining durable-but-unapplied frames are not applied — recovery replays
// them from the WAL.
func (c *Container) failAll(err error) {
	c.markDown(err, true)
}

// markDown transitions the container to the down state. With crash=true the
// stop is abrupt: pipeline stages skip further side effects and the WAL
// handle is left open for the next instance to fence. It never blocks, so
// it is safe to call from container-internal goroutines.
func (c *Container) markDown(err error, crash bool) {
	c.mu.Lock()
	if !c.down {
		c.down = true
		c.downErr = err
		c.downFlag.Store(true)
	}
	c.mu.Unlock()
	if crash {
		c.crashed.Store(true)
	}
	c.stopOnce.Do(func() { close(c.stop) })
	c.flushCond.Broadcast()
}

// requestCrash is markDown for fault hooks: an abrupt stop requested from
// inside a pipeline goroutine.
func (c *Container) requestCrash() {
	c.markDown(ErrContainerDown, true)
}

// Close stops the container's goroutines and seals its WAL handle. It is
// idempotent and safe after Crash (the WAL handle then stays open, as a
// crashed process would leave it).
func (c *Container) Close() error {
	c.markDown(ErrContainerDown, false)
	c.wg.Wait()
	if c.ra != nil {
		c.ra.Close()
	}
	if c.crashed.Load() {
		return nil
	}
	return c.log.Close()
}

// Crash simulates an abrupt failure: goroutines stop without flushing or
// checkpointing, as after a process kill. The WAL handle is left open (a
// real crash would not close it); the next NewContainer fences it. Crash
// waits for the container's goroutines to unwind even when the crash was
// already triggered internally by a fault hook, so callers can restart the
// container without racing lingering flushes.
func (c *Container) Crash() {
	c.markDown(ErrContainerDown, true)
	c.wg.Wait()
	if c.ra != nil {
		c.ra.Close()
	}
}

func (c *Container) isDown() (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.down, c.downErr
}

func (c *Container) kickFlush() {
	select {
	case c.flushKick <- struct{}{}:
	default:
	}
}

// Stats reports container-level counters (tests, figures).
type Stats struct {
	FramesWritten    int64
	BytesWritten     int64
	OpsProcessed     int64
	ThrottleWaits    int64
	UnflushedBytes   int64
	CheckpointsTaken int64
	FlushRounds      int64 // tiering rounds run: age ticks, size kicks, FlushAll
	CacheUsedBytes   int64
}

// Stats returns a snapshot of the container's counters.
func (c *Container) Stats() Stats {
	c.flushMu.Lock()
	unflushed := c.unflushedBytes
	c.flushMu.Unlock()
	return Stats{
		FramesWritten:    c.framesWritten.Value(),
		BytesWritten:     c.bytesWritten.Value(),
		OpsProcessed:     c.opsProcessed.Value(),
		ThrottleWaits:    c.throttleWaits.Value(),
		UnflushedBytes:   unflushed,
		CheckpointsTaken: c.checkpointsTaken.Value(),
		FlushRounds:      c.flushRounds.Value(),
		CacheUsedBytes:   c.cache.Stats().UsedBytes,
	}
}

// SegmentLoad is one segment's current ingest rate, fed to the controller's
// auto-scaling loop (§3.1).
type SegmentLoad struct {
	Segment      string
	EventsPerSec float64
	BytesPerSec  float64
	WindowFull   bool
}

// LoadReport returns per-segment rates for unsealed segments.
func (c *Container) LoadReport() []SegmentLoad {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SegmentLoad, 0, len(c.segments))
	for name, s := range c.segments {
		if s.sealed {
			continue
		}
		ev, by := s.meter.Rates()
		out = append(out, SegmentLoad{
			Segment:      name,
			EventsPerSec: ev,
			BytesPerSec:  by,
			WindowFull:   s.meter.WindowFull(),
		})
	}
	return out
}
