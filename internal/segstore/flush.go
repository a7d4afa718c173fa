package segstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"github.com/pravega-go/pravega/internal/lts"
	"github.com/pravega-go/pravega/internal/wal"
)

// storageWriterLoop is the tiering engine of §4.3: it de-multiplexes
// acknowledged append operations by segment, aggregates small appends into
// larger chunk writes to LTS, records chunk metadata, and truncates the WAL
// once data is safe in long-term storage. If LTS is slow or unavailable the
// un-tiered backlog grows and the append path throttles (§5.4).
func (c *Container) storageWriterLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.cfg.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			// Age-based flush: move everything pending.
			c.flushOnce(true)
		case <-c.flushKick:
			// Size-based flush: only segments over the aggregation
			// threshold, so small appends keep batching into larger
			// LTS writes (§4.3).
			c.flushOnce(false)
		}
	}
}

// flushWork is one segment's un-tiered queue as collectFlushWork found it:
// size contiguous bytes from offset on, in the queued slices.
type flushWork struct {
	segment string
	offset  int64
	size    int64
	parts   [][]byte
}

// collectFlushWork gathers per-segment contiguous unflushed data. With
// all=true everything pending is taken (age-based tick, forced flush);
// otherwise only segments whose backlog reached the aggregation threshold.
// Only the queue's slice headers are taken under c.mu, and flushSegment
// hands those slices to LTS as they are, so a large backlog neither holds
// up appends, applies and tail reads nor is copied. Queued bytes are
// immutable once applied; retireCovered only re-slices the queue.
func (c *Container) collectFlushWork(all bool) []flushWork {
	c.mu.Lock()
	defer c.mu.Unlock()
	var work []flushWork
	for name, s := range c.segments {
		if len(s.unflushed) == 0 {
			continue
		}
		w := flushWork{segment: name, offset: s.unflushed[0].offset, parts: make([][]byte, len(s.unflushed))}
		for i, it := range s.unflushed {
			w.parts[i] = it.data
			w.size += int64(len(it.data))
		}
		if !all && w.size < c.cfg.FlushSizeBytes && !s.sealed {
			continue
		}
		work = append(work, w)
	}
	return work
}

// flushOnce performs one round of tiering. flushRunMu serializes rounds: the
// background ticker, size-based kicks and FlushAll callers never interleave
// within one segment's chunk bookkeeping.
func (c *Container) flushOnce(all bool) {
	c.flushRunMu.Lock()
	defer c.flushRunMu.Unlock()
	if c.crashed.Load() {
		return
	}
	c.flushRounds.Add(1)
	work := c.collectFlushWork(all)
	if len(work) > 0 {
		var firstErr error
		for _, w := range work {
			if err := c.flushSegment(w); err != nil && firstErr == nil {
				// LTS trouble: the committed prefix has been retired, the
				// rest of the backlog stays; the throttle holds writers
				// back while we retry on the next tick (§4.3).
				firstErr = err
			}
		}
		c.flushMu.Lock()
		c.lastFlushErr = firstErr // a clean round clears stale errors
		c.flushMu.Unlock()
	}
	c.maybeTruncateWAL()
}

// flushSegment writes one batch to the segment's active chunk, rolling over
// to a new chunk at the size limit. Flushed bytes are retired from the
// un-tiered queue incrementally — as soon as each chunk write is recorded by
// commitChunkWrite — so a mid-batch LTS error never causes the retry to
// re-write (or double-count in storageLength) bytes that already landed.
// Each step resumes at the storage watermark, which adoptTiered may have
// moved past what this round wrote.
func (c *Container) flushSegment(w flushWork) error {
	start := time.Now()
	var flushed int64
	for {
		if c.crashed.Load() {
			return ErrContainerDown
		}
		c.mu.Lock()
		s, ok := c.segments[w.segment]
		var watermark int64
		if ok {
			watermark = s.storageLength
		}
		c.mu.Unlock()
		if !ok {
			return nil // segment deleted; its backlog went with it
		}
		if watermark < w.offset {
			// The un-tiered queue always starts at the watermark; a gap means
			// metadata corruption — refuse to flush over it.
			return fmt.Errorf("segstore: flush gap in %s: storageLength %d, batch start %d", w.segment, watermark, w.offset)
		}
		written := watermark - w.offset // batch bytes already in LTS
		if written >= w.size {
			break
		}
		name, chunkOff, space, err := c.activeChunk(w.segment)
		switch {
		case errors.Is(err, ErrSegmentNotFound):
			return nil
		case errors.Is(err, lts.ErrChunkExists):
			// A crashed instance created (and maybe filled) the chunk:
			// adopt what it holds and resume after it.
			if err := c.adoptTiered(w.segment); err != nil {
				return err
			}
			continue
		case err != nil:
			return err
		}
		n := min(w.size-written, space)
		if err := c.cfg.LTS.Write(name, chunkOff, lts.PartsRange(w.parts, written, n)...); err != nil {
			// The write may have landed a prefix before failing. Adopt it so
			// the retry neither re-writes those bytes nor double-counts them.
			err = fmt.Errorf("segstore: LTS write %s@%d: %w", name, chunkOff, err)
			return errors.Join(err, c.adoptTiered(w.segment))
		}
		c.commitChunkWrite(w.segment, name, n)
		if h := c.cfg.Hooks; h != nil && h.BeforeFlushRetire != nil && h.BeforeFlushRetire(w.segment, name, n) {
			c.requestCrash()
			return ErrContainerDown
		}
		c.retireCovered(w.segment)
		flushed += n
	}
	mLTSFlushes.Inc()
	mLTSFlushBytes.Add(flushed)
	mLTSFlushUs.RecordSince(start)
	return nil
}

// chunkName is the deterministic LTS name of the segment's chunk starting
// at offset. Chunk content is a pure function of segment bytes, so whatever
// LTS holds under that name is exactly the segment from offset on.
func chunkName(segName string, offset int64) string {
	return fmt.Sprintf("%s/chunk-%d", segName, offset)
}

// activeChunk returns the chunk to write at the segment's storage
// watermark, with the in-chunk write offset and remaining capacity. When
// the last chunk is full (or none exists) it creates the next one in LTS
// first and records it after; flushRunMu keeps any other round from
// touching the segment's chunks in between. A create that finds the name
// taken returns lts.ErrChunkExists for the caller to adopt.
func (c *Container) activeChunk(segName string) (string, int64, int64, error) {
	c.mu.Lock()
	s, ok := c.segments[segName]
	if !ok {
		c.mu.Unlock()
		return "", 0, 0, fmt.Errorf("%w: %s", ErrSegmentNotFound, segName)
	}
	if n := len(s.chunks); n > 0 && s.chunks[n-1].Length < c.cfg.ChunkSizeLimit {
		last := s.chunks[n-1]
		c.mu.Unlock()
		return last.Name, last.Length, c.cfg.ChunkSizeLimit - last.Length, nil
	}
	at := s.storageLength
	c.mu.Unlock()

	name := chunkName(segName, at)
	if err := c.cfg.LTS.Create(name); err != nil {
		return "", 0, 0, fmt.Errorf("segstore: creating chunk %s: %w", name, err)
	}
	if h := c.cfg.Hooks; h != nil && h.AfterChunkCreate != nil && h.AfterChunkCreate(segName, name) {
		c.requestCrash()
		return "", 0, 0, ErrContainerDown
	}
	c.mu.Lock()
	live := c.segments[segName] == s
	if live {
		s.chunks = append(s.chunks, chunkMeta{Name: name, StartOffset: at})
		c.metaChanges++
	}
	c.mu.Unlock()
	if !live {
		// Deleted (or deleted and re-created) while the create ran: the
		// delete never saw this chunk, so it is ours to remove.
		_ = c.cfg.LTS.Delete(name)
		return "", 0, 0, fmt.Errorf("%w: %s", ErrSegmentNotFound, segName)
	}
	return name, 0, c.cfg.ChunkSizeLimit, nil
}

// commitChunkWrite records n bytes as durable in the named chunk and
// advances the segment's storage length.
func (c *Container) commitChunkWrite(segName, chunkName string, n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.segments[segName]
	if !ok {
		return
	}
	for i := range s.chunks {
		if s.chunks[i].Name == chunkName {
			s.chunks[i].Length += n
			break
		}
	}
	s.storageLength += n
	c.metaChanges++
}

// adoptTiered is how the container learns what LTS holds of a segment
// beyond its chunk metadata: bytes a write landed before it failed, and
// chunks a crashed instance created or filled after its last checkpoint. It
// commits the growth of the last chunk, then, while the last chunk is full
// (or there is none), probes the next deterministic chunk name and records
// what it finds; ErrNoChunk ends the probe. Adoption never moves the storage
// watermark past the segment's length: a chunk that would is not this
// segment's bytes, and is an error. Covered queue bytes are retired by
// offset, since the queue may lack bytes whose WAL entries were truncated
// after they were tiered.
//
// Recovery runs it for every segment and fails if LTS does not answer; the
// storage writer runs it after a failed write and after a create that finds
// its chunk already there.
func (c *Container) adoptTiered(segName string) error {
	var adopted int64
	defer func() {
		if adopted > 0 {
			c.retireCovered(segName)
			mFlushReconciledBytes.Add(adopted)
		}
	}()
	for {
		c.mu.Lock()
		s, ok := c.segments[segName]
		if !ok {
			c.mu.Unlock()
			return nil
		}
		n := len(s.chunks)
		full := n == 0 || s.chunks[n-1].Length >= c.cfg.ChunkSizeLimit
		at, room := s.storageLength, s.length-s.storageLength
		name, recorded := chunkName(segName, at), int64(0)
		if !full {
			name, recorded = s.chunks[n-1].Name, s.chunks[n-1].Length
		}
		c.mu.Unlock()

		length, err := c.cfg.LTS.Length(name)
		if errors.Is(err, lts.ErrNoChunk) && full {
			return nil
		}
		if err != nil {
			return fmt.Errorf("segstore: probing chunk %s: %w", name, err)
		}
		grown := length - recorded
		if grown > room {
			return fmt.Errorf("segstore: chunk %s holds %d bytes, %d past %s's length", name, length, grown-room, segName)
		}
		if grown <= 0 && !full {
			return nil // the last chunk holds what its entry records
		}
		c.mu.Lock()
		live := c.segments[segName] == s // not deleted during the probe
		if live {
			if full {
				s.chunks = append(s.chunks, chunkMeta{Name: name, StartOffset: at})
			}
			s.chunks[len(s.chunks)-1].Length += grown
			s.storageLength += grown
			c.metaChanges++
			adopted += grown
		}
		c.mu.Unlock()
		if !live {
			return nil
		}
	}
}

// retireCovered drops every queued byte the storage watermark now covers —
// whole items below storageLength, and the covered prefix of an item
// straddling it — then wakes throttled writers. Retiring by offset rather
// than by byte count matters after recovery: adoption can advance the
// watermark over bytes whose WAL entries were already truncated (they were
// tiered before the crash), so the queue may legitimately lack them. A
// count-based retire would eat the head of the next, still-unflushed item.
func (c *Container) retireCovered(segName string) {
	c.mu.Lock()
	s, ok := c.segments[segName]
	var freed int64
	if ok {
		for len(s.unflushed) > 0 {
			it := &s.unflushed[0]
			end := it.offset + int64(len(it.data))
			if end <= s.storageLength {
				s.unflushed = s.unflushed[1:]
				freed += int64(len(it.data))
				continue
			}
			if it.offset < s.storageLength {
				// Partially tiered item: keep the tail. The WAL address
				// stays (conservative — truncation holds the whole entry
				// until the item fully retires).
				cut := s.storageLength - it.offset
				it.data = it.data[cut:]
				it.offset += cut
				freed += cut
			}
			break
		}
		// Every advance of a storage watermark comes through here, and an
		// advance is what makes cached entries evictable again.
		c.evictStalled = false
	}
	c.mu.Unlock()
	c.settleBacklog(0, freed)
}

// maybeTruncateWAL releases WAL ledgers no longer needed for recovery: all
// retained data must cover (a) operations not yet tiered to LTS and (b) the
// last metadata checkpoint (§4.3, §4.4). Truncation failures are recorded
// (metric + LastTruncateError) and retried on the next round — never
// silently discarded.
func (c *Container) maybeTruncateWAL() {
	if c.crashed.Load() || c.downFlag.Load() {
		return
	}
	c.mu.Lock()
	var lowest *wal.Address
	for _, s := range c.segments {
		if len(s.unflushed) > 0 {
			a := s.unflushed[0].addr
			if lowest == nil || a.Less(*lowest) {
				lowest = &a
			}
		}
	}
	c.mu.Unlock()

	c.flushMu.Lock()
	hasCP := c.hasCheckpoint
	cover := c.cpCover
	coverOK := c.cpCoverOK
	c.flushMu.Unlock()
	// Truncate only up to the checkpoint's coverage watermark, never up to
	// the checkpoint frame itself: frames between the two can carry
	// acknowledged operations (truncates, seals, writer attributes) applied
	// after the snapshot was captured — they exist nowhere but the WAL. A
	// recovered checkpoint has no watermark (coverOK false), so nothing is
	// released until the next live checkpoint re-establishes one.
	if !hasCP || !coverOK {
		return
	}
	upTo := cover
	if lowest != nil && lowest.Less(upTo) {
		upTo = *lowest
	}
	if err := c.log.Truncate(upTo); err != nil {
		mWALTruncateErrors.Inc()
		c.flushMu.Lock()
		c.lastTruncateErr = fmt.Errorf("segstore: WAL truncate to %v: %w", upTo, err)
		c.flushMu.Unlock()
		return
	}
	c.flushMu.Lock()
	c.lastTruncateErr = nil
	c.flushMu.Unlock()
	if h := c.cfg.Hooks; h != nil && h.AfterWALTruncate != nil && h.AfterWALTruncate() {
		c.requestCrash()
	}
}

// LastFlushError returns the most recent tiering error (nil after a clean
// round). While LTS is persistently down this is how FlushAll and
// role.Cluster.WaitForTiering surface the cause instead of spinning silently.
func (c *Container) LastFlushError() error {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	return c.lastFlushErr
}

// LastTruncateError returns the most recent WAL truncation failure, nil
// after a succeeding round.
func (c *Container) LastTruncateError() error {
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	return c.lastTruncateErr
}

// checkpointLoop periodically writes a metadata checkpoint operation into
// the WAL so recovery replays a bounded tail (§4.4). A tick with nothing
// applied or tiered since the last checkpoint writes nothing.
func (c *Container) checkpointLoop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.cfg.CheckpointInterval)
	defer ticker.Stop()
	var checkpointed uint64
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
		c.mu.Lock()
		changes := c.metaChanges
		c.mu.Unlock()
		if changes != checkpointed && c.Checkpoint() == nil {
			checkpointed = changes
		}
	}
}

// validateChunks enforces the chunk-layout invariant of §4.3: chunks are
// contiguous from offset 0, non-overlapping, and cover exactly the tiered
// prefix (Σ length == storageLength).
func validateChunks(seg string, chunks []chunkMeta, storageLength int64) error {
	var off int64
	for _, ch := range chunks {
		if ch.StartOffset != off {
			return fmt.Errorf("segstore: chunk invariant violated in %s: chunk %s starts at %d, want %d (overlap or gap)",
				seg, ch.Name, ch.StartOffset, off)
		}
		if ch.Length < 0 {
			return fmt.Errorf("segstore: chunk invariant violated in %s: chunk %s has negative length %d", seg, ch.Name, ch.Length)
		}
		off += ch.Length
	}
	if off != storageLength {
		return fmt.Errorf("segstore: chunk invariant violated in %s: chunks cover %d bytes, storageLength is %d",
			seg, off, storageLength)
	}
	return nil
}

// Checkpoint snapshots container metadata into the WAL and returns once the
// snapshot is durable. The chunk-layout invariant is validated before
// anything is written, so a corrupt layout can never become durable.
func (c *Container) Checkpoint() error {
	if h := c.cfg.Hooks; h != nil && h.BeforeCheckpoint != nil && h.BeforeCheckpoint() {
		c.requestCrash()
		return ErrContainerDown
	}
	c.mu.Lock()
	cp := checkpointState{Segments: make(map[string]checkpointSegment, len(c.segments))}
	for name, s := range c.segments {
		chunks := make([]chunkMeta, len(s.chunks))
		copy(chunks, s.chunks)
		if err := validateChunks(name, chunks, s.storageLength); err != nil {
			c.mu.Unlock()
			return err
		}
		cp.Segments[name] = checkpointSegment{
			Sealed:        s.sealed,
			Length:        s.length,
			StartOffset:   s.startOffset,
			StorageLength: s.storageLength,
			Attributes:    s.attributes.Clone(),
			Chunks:        chunks,
		}
	}
	// The coverage watermark travels with the snapshot: operations already
	// in the WAL but applied after this instant land at addresses BELOW the
	// checkpoint frame yet are missing from the snapshot, so WAL truncation
	// must stop at the watermark, not at the checkpoint frame
	// (maybeTruncateWAL).
	cover, coverOK := c.lastApplied, c.hasLastApplied
	c.mu.Unlock()
	if h := c.cfg.Hooks; h != nil && h.AfterCheckpointSnapshot != nil {
		h.AfterCheckpointSnapshot()
	}
	data, err := json.Marshal(cp)
	if err != nil {
		return err
	}
	_, err = c.submit(Operation{Type: OpCheckpoint, Checkpoint: data, cpCover: cover, cpCoverOK: coverOK})
	return err
}

// FlushAll forces every pending byte to LTS (tests and graceful shutdown).
// When tiering cannot make progress the underlying cause is wrapped so
// callers see why (LTS down, chunk error, ...), not just a byte count.
func (c *Container) FlushAll() error {
	c.flushOnce(true)
	c.flushMu.Lock()
	defer c.flushMu.Unlock()
	if c.unflushedBytes > 0 {
		if c.lastFlushErr != nil {
			return fmt.Errorf("segstore: %d bytes still unflushed: %w", c.unflushedBytes, c.lastFlushErr)
		}
		return fmt.Errorf("segstore: %d bytes still unflushed", c.unflushedBytes)
	}
	return nil
}
