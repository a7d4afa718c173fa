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
func (c *Container) flushSegment(w flushWork) error {
	start := time.Now()

	// The storage watermark may already cover a prefix of this batch:
	// recovery reconciliation or a partially failed earlier round can
	// advance storageLength between collection and flush. Never re-write
	// tiered bytes — drop the covered prefix from the queue instead.
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
	// written counts the batch's bytes that are in LTS, from w.offset on.
	var written int64
	if watermark > w.offset {
		written = min(watermark-w.offset, w.size)
		c.retireCovered(w.segment)
		if written == w.size {
			return nil
		}
	}
	if watermark < w.offset {
		// The un-tiered queue always starts at the watermark; a gap means
		// metadata corruption — refuse to flush over it.
		return fmt.Errorf("segstore: flush gap in %s: storageLength %d, batch start %d", w.segment, watermark, w.offset)
	}

	flushed := w.size - written
	for written < w.size {
		if c.crashed.Load() {
			return ErrContainerDown
		}
		name, chunkOff, space, adopted, err := c.activeChunk(w.segment, w.offset+written)
		if err != nil {
			if errors.Is(err, ErrSegmentNotFound) {
				return nil
			}
			return err
		}
		if adopted > 0 {
			// activeChunk found those bytes already in LTS (orphan chunk
			// from a crashed flush) and committed them; just retire.
			adopted = min(adopted, w.size-written)
			c.retireCovered(w.segment)
			written += adopted
			mFlushReconciledBytes.Add(adopted)
			continue
		}
		n := min(w.size-written, space)
		if err := c.cfg.LTS.Write(name, chunkOff, lts.PartsRange(w.parts, written, n)...); err != nil {
			// The write may have landed a prefix before failing. Adopt
			// whatever actually reached the chunk so the retry neither
			// re-writes those bytes nor double-counts storageLength.
			if rec := c.reconcileChunk(w.segment, name, chunkOff, n); rec > 0 {
				c.retireCovered(w.segment)
				mFlushReconciledBytes.Add(rec)
			}
			return fmt.Errorf("segstore: LTS write %s@%d: %w", name, chunkOff, err)
		}
		c.commitChunkWrite(w.segment, name, n)
		if h := c.cfg.Hooks; h != nil && h.BeforeFlushRetire != nil && h.BeforeFlushRetire(w.segment, name, n) {
			c.requestCrash()
			return ErrContainerDown
		}
		c.retireCovered(w.segment)
		written += n
	}
	mLTSFlushes.Inc()
	mLTSFlushBytes.Add(flushed)
	mLTSFlushUs.RecordSince(start)
	return nil
}

// activeChunk returns the chunk to write at the given segment offset,
// creating a new one when the last chunk is full (or none exists). It
// returns the chunk name, the in-chunk write offset and remaining capacity.
//
// New chunks go through a provisional Pending metadata entry: the entry is
// appended under c.mu, the LTS create happens outside the lock, and the
// entry is then resolved — by name, re-checked under c.mu — rather than
// assumed to still be last. Pending entries are never checkpointed.
//
// Chunk names are deterministic (<segment>/chunk-<startOffset>) and chunk
// content is a pure function of segment bytes, so a create that collides
// with an orphan chunk left by a crashed instance is safe to adopt: its
// bytes are exactly the segment bytes at that offset. The adopted length is
// committed to metadata here and returned so the caller retires it.
func (c *Container) activeChunk(segName string, segOffset int64) (string, int64, int64, int64, error) {
	c.mu.Lock()
	s, ok := c.segments[segName]
	if !ok {
		c.mu.Unlock()
		return "", 0, 0, 0, fmt.Errorf("%w: %s", ErrSegmentNotFound, segName)
	}
	if n := len(s.chunks); n > 0 {
		last := &s.chunks[n-1]
		if last.Pending {
			// Leftover provisional entry from an aborted round (crash
			// between append and resolve). flushRunMu means no one is
			// mid-create now; drop it and start over.
			s.chunks = s.chunks[:n-1]
		} else if last.Length < c.cfg.ChunkSizeLimit && last.StartOffset+last.Length == segOffset {
			name, off, space := last.Name, last.Length, c.cfg.ChunkSizeLimit-last.Length
			c.mu.Unlock()
			return name, off, space, 0, nil
		}
	}
	chunkName := fmt.Sprintf("%s/chunk-%d", segName, segOffset)
	s.chunks = append(s.chunks, chunkMeta{Name: chunkName, StartOffset: segOffset, Pending: true})
	c.mu.Unlock()

	cerr := c.cfg.LTS.Create(chunkName)
	switch {
	case cerr == nil:
		if h := c.cfg.Hooks; h != nil && h.AfterChunkCreate != nil && h.AfterChunkCreate(segName, chunkName) {
			c.requestCrash()
			return "", 0, 0, 0, ErrContainerDown
		}
		c.resolvePending(segName, chunkName, 0, true)
		return chunkName, 0, c.cfg.ChunkSizeLimit, 0, nil
	case errors.Is(cerr, lts.ErrChunkExists):
		actual, lerr := c.cfg.LTS.Length(chunkName)
		if lerr != nil {
			c.resolvePending(segName, chunkName, 0, false)
			return "", 0, 0, 0, fmt.Errorf("segstore: probing existing chunk %s: %w", chunkName, lerr)
		}
		c.resolvePending(segName, chunkName, actual, true)
		return chunkName, actual, c.cfg.ChunkSizeLimit - actual, actual, nil
	default:
		c.resolvePending(segName, chunkName, 0, false)
		return "", 0, 0, 0, fmt.Errorf("segstore: creating chunk %s: %w", chunkName, cerr)
	}
}

// resolvePending finalizes a provisional chunk entry under c.mu: on keep it
// clears the Pending flag and commits length adopted bytes; otherwise it
// removes the entry. The entry is located by name — never by position — so
// the resolution is correct no matter what else ran while the lock was
// dropped for the LTS call.
func (c *Container) resolvePending(segName, chunkName string, length int64, keep bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.segments[segName]
	if !ok {
		return
	}
	for i := range s.chunks {
		if s.chunks[i].Name != chunkName || !s.chunks[i].Pending {
			continue
		}
		if keep {
			s.chunks[i].Pending = false
			s.chunks[i].Length = length
			s.storageLength += length
			c.metaChanges++
		} else {
			s.chunks = append(s.chunks[:i], s.chunks[i+1:]...)
		}
		return
	}
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

// reconcileChunk queries the chunk's actual LTS length after a failed write
// and commits any bytes that landed beyond what metadata records (a partial
// write that errored after persisting a prefix). Returns the adopted byte
// count; 0 when the probe fails or nothing extra landed.
func (c *Container) reconcileChunk(segName, chunkName string, recorded, attempted int64) int64 {
	actual, err := c.cfg.LTS.Length(chunkName)
	if err != nil || actual <= recorded {
		return 0
	}
	delta := actual - recorded
	if delta > attempted {
		// Never adopt more than this write attempted: anything beyond it
		// is not ours to account for.
		delta = attempted
	}
	c.commitChunkWrite(segName, chunkName, delta)
	return delta
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

// reconcileStorage runs once during recovery, after replay: it aligns chunk
// metadata with what actually reached LTS before the crash. Two kinds of
// drift are possible — the last recorded chunk may hold more bytes than the
// checkpoint knew about (commitChunkWrite lost to the crash), and whole
// successor chunks may exist that no surviving metadata mentions (created
// and written, then crashed before any checkpoint). Both are adopted:
// chunk names are deterministic in the start offset and chunk content is a
// pure function of segment bytes, so anything found under the expected name
// is exactly the tiered prefix. Reconciliation is best-effort: if LTS is
// unreachable the flush-time reconciliation net (activeChunk adoption,
// reconcileChunk) heals the same drift later.
func (c *Container) reconcileStorage() {
	c.mu.Lock()
	names := make([]string, 0, len(c.segments))
	for name := range c.segments {
		names = append(names, name)
	}
	c.mu.Unlock()
	for _, name := range names {
		c.reconcileSegmentStorage(name)
	}
}

func (c *Container) reconcileSegmentStorage(segName string) {
	c.mu.Lock()
	s, ok := c.segments[segName]
	if !ok {
		c.mu.Unlock()
		return
	}
	var (
		lastName string
		lastLen  int64
		haveLast = len(s.chunks) > 0
	)
	if haveLast {
		lastName = s.chunks[len(s.chunks)-1].Name
		lastLen = s.chunks[len(s.chunks)-1].Length
	}
	c.mu.Unlock()

	var adopted int64

	// Step 1: the last recorded chunk may have grown past its recorded
	// length (write landed, commit lost to the crash).
	if haveLast {
		actual, err := c.cfg.LTS.Length(lastName)
		switch {
		case errors.Is(err, lts.ErrNoChunk) && lastLen == 0:
			// Provisional entry whose create never reached LTS: drop it.
			c.mu.Lock()
			if n := len(s.chunks); n > 0 && s.chunks[n-1].Name == lastName && s.chunks[n-1].Length == 0 {
				s.chunks = s.chunks[:n-1]
				c.metaChanges++
			}
			c.mu.Unlock()
		case err != nil:
			return // LTS unreachable: leave it to the flush-time net
		case actual > lastLen:
			delta := actual - lastLen
			c.commitChunkWrite(segName, lastName, delta)
			adopted += delta
		}
	}

	// Step 2: probe for orphan successor chunks at the deterministic next
	// name while each previous chunk is full.
	for {
		c.mu.Lock()
		full := len(s.chunks) == 0 || s.chunks[len(s.chunks)-1].Length >= c.cfg.ChunkSizeLimit
		watermark := s.storageLength
		c.mu.Unlock()
		if !full {
			break
		}
		name := fmt.Sprintf("%s/chunk-%d", segName, watermark)
		exists, err := c.cfg.LTS.Exists(name)
		if err != nil || !exists {
			break
		}
		actual, err := c.cfg.LTS.Length(name)
		if err != nil {
			break
		}
		c.mu.Lock()
		s.chunks = append(s.chunks, chunkMeta{Name: name, StartOffset: watermark, Length: actual})
		s.storageLength += actual
		c.metaChanges++
		c.mu.Unlock()
		adopted += actual
		if actual < c.cfg.ChunkSizeLimit {
			break
		}
	}

	// Step 3: replay re-queued everything above the checkpoint watermark for
	// re-flushing; drop whatever of it adoption just proved is tiered. Note
	// the queue may hold less than `adopted` bytes below the new watermark:
	// entries tiered before the crash can already be truncated from the WAL,
	// so retirement goes by offset, never by the adopted count.
	if adopted > 0 {
		c.retireCovered(segName)
		mFlushReconciledBytes.Add(adopted)
	}
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
// prefix (Σ length == storageLength). Pending entries must be filtered out
// by the caller first.
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
// snapshot is durable. Provisional (pending) chunk entries are excluded; the
// chunk-layout invariant is validated before anything is written, so a
// corrupt layout can never become durable.
func (c *Container) Checkpoint() error {
	if h := c.cfg.Hooks; h != nil && h.BeforeCheckpoint != nil && h.BeforeCheckpoint() {
		c.requestCrash()
		return ErrContainerDown
	}
	c.mu.Lock()
	cp := checkpointState{Segments: make(map[string]checkpointSegment, len(c.segments))}
	for name, s := range c.segments {
		chunks := make([]chunkMeta, 0, len(s.chunks))
		for _, ch := range s.chunks {
			if ch.Pending {
				continue
			}
			chunks = append(chunks, ch)
		}
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
