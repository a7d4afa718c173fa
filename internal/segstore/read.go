package segstore

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pravega-go/pravega/internal/blockcache"
	"github.com/pravega-go/pravega/internal/readindex"
)

// ReadResult is the outcome of one segment read.
type ReadResult struct {
	// Data holds the bytes read (possibly fewer than requested). It may
	// alias a shared readahead buffer or an append's payload in the
	// un-tiered queue, and must not be modified.
	Data []byte
	// Offset echoes the read's start offset.
	Offset int64
	// EndOfSegment is set when the segment is sealed and the read reached
	// its end: the reader should fetch the segment's successors (§3.3).
	EndOfSegment bool
}

// Read returns up to maxBytes starting at offset. Reads at the segment's
// tail block up to wait for new data (tail reads return a future
// server-side, §4.2 — here a bounded long-poll). A zero wait makes tail
// reads return immediately with empty data. Read is ReadCtx without
// cancellation; it stays because the benchmark's probes (bench/probes.go),
// which are not edited with the code, call it.
func (c *Container) Read(name string, offset int64, maxBytes int, wait time.Duration) (ReadResult, error) {
	return c.ReadCtx(context.Background(), name, offset, maxBytes, wait)
}

// ReadCtx is Read with cancellation: a tail read long-polling for new data
// returns as soon as ctx is done (with ctx.Err()), instead of waiting out
// the full poll interval.
func (c *Container) ReadCtx(ctx context.Context, name string, offset int64, maxBytes int, wait time.Duration) (ReadResult, error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	deadline := time.Now().Add(wait)
	for {
		c.mu.Lock()
		if c.down {
			err := c.downErr
			c.mu.Unlock()
			return ReadResult{}, err
		}
		s, ok := c.segments[name]
		if !ok {
			c.mu.Unlock()
			return ReadResult{}, fmt.Errorf("%w: %s", ErrSegmentNotFound, name)
		}
		if start := s.startOffset; offset < start {
			c.mu.Unlock()
			return ReadResult{}, fmt.Errorf("%w: offset %d < %d", ErrSegmentTruncated, offset, start)
		}
		if offset > s.length {
			c.mu.Unlock()
			return ReadResult{}, fmt.Errorf("segstore: read offset %d beyond length", offset)
		}
		if offset == s.length {
			if s.sealed {
				c.mu.Unlock()
				return ReadResult{Offset: offset, EndOfSegment: true}, nil
			}
			remain := time.Until(deadline)
			if remain <= 0 {
				// Zero/expired wait: answer before registering, or the
				// abandoned waiter channel would sit on an idle segment
				// until its next append.
				c.mu.Unlock()
				return ReadResult{Offset: offset}, nil
			}
			// Tail read: register a waiter and long-poll (§4.2).
			w := make(chan struct{})
			s.waiters = append(s.waiters, w)
			c.mu.Unlock()
			timer := time.NewTimer(remain)
			select {
			case <-w:
				timer.Stop()
				continue
			case <-timer.C:
				c.forgetWaiter(name, w)
				return ReadResult{Offset: offset}, nil
			case <-ctx.Done():
				timer.Stop()
				c.forgetWaiter(name, w)
				return ReadResult{}, ctx.Err()
			case <-c.stop:
				timer.Stop()
				return ReadResult{}, ErrContainerDown
			}
		}
		// Data available. readAvailable releases c.mu before any copy out
		// of the cache and any LTS or readahead I/O. It reports a cached
		// read that a truncation, eviction or deletion overtook as not
		// stable; looking again finds what is true now.
		res, stable, err := c.readAvailable(s, offset, maxBytes)
		if stable {
			return res, err
		}
	}
}

// forgetWaiter deregisters a tail waiter whose long-poll exited without
// being woken (timeout or cancellation). Skipping this leaks the channel
// into the segment's waiter list until its next append — unbounded growth
// on idle segments under churning readers. A waiter already swept by an
// append/seal/remove broadcast is simply not found.
func (c *Container) forgetWaiter(name string, w chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.segments[name]
	if !ok {
		return
	}
	for i, x := range s.waiters {
		if x == w {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			return
		}
	}
}

// cachedPiece is one cache entry's share of a gathered read: n bytes from
// off within the entry at addr.
type cachedPiece struct {
	addr blockcache.Address
	off  int64
	n    int
}

// maxGatherPieces bounds the cache entries one read gathers: a 1 MiB read of
// full entries takes four, or five when it starts inside one.
const maxGatherPieces = 8

// readAvailable serves a read below the segment length. The caller holds
// c.mu; readAvailable ALWAYS returns with it released. The lock is held for
// index lookups and the un-tiered queue only — never across a copy out of
// the cache or LTS I/O, so neither a long cached read nor a stuck LTS
// backend can stall tail reads or the append applier.
//
// A cached read gathers the consecutive cached entries from offset, up to
// maxBytes, copies them unlocked and then checks under c.mu that the
// segment still stands, offset is still above its truncation point and no
// cached entry left its index meanwhile. Every cache.Delete happens under
// c.mu after the index change that counts the removal, so an unchanged count
// proves the blocks copied from were the entries' own throughout; appends
// only add bytes beyond those copied. Otherwise stable is false and the
// caller looks again.
func (c *Container) readAvailable(s *segState, offset int64, maxBytes int) (res ReadResult, stable bool, err error) {
	avail := s.length - offset
	if int64(maxBytes) > avail {
		maxBytes = int(avail)
	}
	mReadLookups.Inc()
	var pieces [maxGatherPieces]cachedPiece
	np, total := 0, 0
	var ferr error
	for np < len(pieces) && total < maxBytes {
		var e readindex.Entry
		e, ferr = s.index.Find(offset + int64(total))
		if ferr != nil || e.Where != readindex.InCache {
			break
		}
		off := offset + int64(total) - e.Offset
		n := min(int(e.Length-off), maxBytes-total)
		pieces[np] = cachedPiece{addr: e.CacheAddr, off: off, n: n}
		np++
		total += n
	}
	if np > 0 {
		name, removals := s.name, s.index.Removals()
		c.mu.Unlock()
		buf := make([]byte, total)
		copied := true
		for at, i := 0, 0; i < np && copied; i++ {
			p := pieces[i]
			n, cerr := c.cache.ReadAt(p.addr, p.off, buf[at:at+p.n])
			copied = cerr == nil && n == p.n
			at += p.n
		}
		c.mu.Lock()
		if c.segments[name] != s || offset < s.startOffset || s.index.Removals() != removals {
			c.mu.Unlock()
			return ReadResult{}, false, nil
		}
		if copied {
			c.mu.Unlock()
			mCacheHits.Inc()
			return ReadResult{Data: buf, Offset: offset}, true, nil
		}
		// Nothing changed and yet the blocks were not there: the index
		// points at a freed entry. Serve the read as a miss.
	}
	mCacheMisses.Inc()
	if offset < s.storageLength {
		res, err = c.readFromLTS(s, offset, int64(maxBytes))
		return res, true, err
	}
	// Not cached, not in LTS: the bytes are in the un-tiered queue (the
	// cache was full on apply), which is sorted by offset. Queued bytes are
	// immutable, so the read shares them.
	q := s.unflushed
	i := sort.Search(len(q), func(i int) bool { return q[i].offset+int64(len(q[i].data)) > offset })
	if i < len(q) && q[i].offset <= offset {
		from := offset - q[i].offset
		to := min(from+int64(maxBytes), int64(len(q[i].data)))
		c.mu.Unlock()
		return ReadResult{Data: q[i].data[from:to], Offset: offset}, true, nil
	}
	name := s.name
	c.mu.Unlock()
	if ferr != nil {
		return ReadResult{}, true, fmt.Errorf("%w: %s@%d: %v", ErrNoReadSource, name, offset, ferr)
	}
	return ReadResult{}, true, fmt.Errorf("%w: %s@%d: read raced with state change", ErrNoReadSource, name, offset)
}

// chunkRead is one chunk's share of a scatter-gather read: n bytes from
// chunkOff within the chunk, landing at bufOff within the caller's buffer.
type chunkRead struct {
	chunk    string
	chunkOff int64
	bufOff   int64
	n        int64
}

// planChunkReads maps [offset, end) onto the covering chunks. Pending
// (unconfirmed) chunks are never served; the plan is truncated at the first
// coverage gap so the result is always a contiguous prefix.
func planChunkReads(chunks []chunkMeta, offset, end int64) []chunkRead {
	var plan []chunkRead
	next := offset
	for i := range chunks {
		ch := &chunks[i]
		if ch.Pending {
			break
		}
		lo, hi := offset, end
		if ch.StartOffset > lo {
			lo = ch.StartOffset
		}
		if ch.StartOffset+ch.Length < hi {
			hi = ch.StartOffset + ch.Length
		}
		if hi <= lo {
			continue
		}
		if lo != next {
			break // gap: serve what is contiguous from offset
		}
		plan = append(plan, chunkRead{
			chunk:    ch.Name,
			chunkOff: lo - ch.StartOffset,
			bufOff:   lo - offset,
			n:        hi - lo,
		})
		next = hi
	}
	return plan
}

// scatterGather fans the planned chunk reads out across up to
// MaxReadFanout goroutines, each read landing in its own slot of buf. It
// returns the length of the contiguous prefix that was read successfully
// and, when that prefix is incomplete, the first failure. No lock is held.
func (c *Container) scatterGather(plan []chunkRead, buf []byte) (int64, error) {
	workers := c.cfg.MaxReadFanout
	if workers > len(plan) {
		workers = len(plan)
	}
	errs := make([]error, len(plan))
	if workers <= 1 {
		for i, cr := range plan {
			errs[i] = c.readChunk(cr, buf)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(plan) {
						return
					}
					errs[i] = c.readChunk(plan[i], buf)
				}
			}()
		}
		wg.Wait()
	}
	var got int64
	for i, e := range errs {
		if e != nil {
			return got, e
		}
		got += plan[i].n
	}
	return got, nil
}

func (c *Container) readChunk(cr chunkRead, buf []byte) error {
	read, err := c.cfg.LTS.Read(cr.chunk, cr.chunkOff, buf[cr.bufOff:cr.bufOff+cr.n])
	if err != nil {
		return fmt.Errorf("segstore: LTS read %s: %w", cr.chunk, err)
	}
	if int64(read) < cr.n {
		return fmt.Errorf("segstore: LTS read %s: short read %d < %d", cr.chunk, read, cr.n)
	}
	return nil
}

// readFromLTS serves a historical read from the segment's chunks. The
// caller holds c.mu; the chunk plan is snapshotted under it, then the lock
// is released for the duration of all I/O (§4.2: LTS can be slow, and its
// latency must not leak into the tail path). The result is not installed
// into the block cache — historical catch-up readers stream large ranges
// once, and polluting the cache would evict the tail working set. Instead
// the read is reported to the readahead prefetcher, which pipelines the
// ranges after it into its own budget.
func (c *Container) readFromLTS(s *segState, offset, maxBytes int64) (ReadResult, error) {
	name := s.name
	end := offset + maxBytes
	if end > s.storageLength {
		end = s.storageLength
	}
	storageLen := s.storageLength
	plan := planChunkReads(s.chunks, offset, end)
	c.mu.Unlock()

	if len(plan) == 0 {
		return ReadResult{}, fmt.Errorf("%w: no chunk covers %s@%d", ErrNoReadSource, name, offset)
	}
	mCatchupReads.Inc()

	// A buffered (or in-flight) readahead range is the fast path: no LTS
	// round-trip at all.
	if c.ra != nil {
		if data, ok := c.ra.Get(name, offset); ok {
			n := int64(len(data))
			if n > end-offset {
				n = end - offset
			}
			out := data[:n:n]
			c.ra.Observe(name, offset, offset+n, storageLen)
			mCatchupReadBytes.Add(n)
			return c.finishLTSRead(name, s, offset, out)
		}
	}

	start := time.Now()
	buf := make([]byte, end-offset)
	got, err := c.scatterGather(plan, buf)
	mReadFanout.Record(int64(len(plan)))
	mLTSReadUs.RecordSince(start)
	if got == 0 {
		return ReadResult{}, err
	}
	mCatchupReadBytes.Add(got)
	if c.ra != nil {
		c.ra.Observe(name, offset, offset+got, storageLen)
	}
	return c.finishLTSRead(name, s, offset, buf[:got])
}

// finishLTSRead revalidates a completed unlocked LTS/readahead read against
// the segment's current state: a truncation or deletion that landed while
// the I/O was in flight must surface as its sentinel error, never as stale
// pre-truncation bytes.
func (c *Container) finishLTSRead(name string, s *segState, offset int64, data []byte) (ReadResult, error) {
	c.mu.Lock()
	cur, ok := c.segments[name]
	if !ok || cur != s {
		c.mu.Unlock()
		return ReadResult{}, fmt.Errorf("%w: %s", ErrSegmentNotFound, name)
	}
	if start := cur.startOffset; offset < start {
		c.mu.Unlock()
		return ReadResult{}, fmt.Errorf("%w: offset %d < %d", ErrSegmentTruncated, offset, start)
	}
	c.mu.Unlock()
	return ReadResult{Data: data, Offset: offset}, nil
}

// fetchRange is the readahead prefetcher's backing fetch: one aligned range
// of a segment's tiered prefix, read with the same scatter-gather fanout as
// foreground reads. It snapshots the plan under c.mu and performs all I/O
// unlocked. Short results (range past the tiered prefix, or truncated
// mid-fetch) are returned as-is; the prefetcher discards them.
func (c *Container) fetchRange(segment string, offset, length int64) ([]byte, error) {
	c.mu.Lock()
	if c.down {
		err := c.downErr
		c.mu.Unlock()
		return nil, err
	}
	s, ok := c.segments[segment]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrSegmentNotFound, segment)
	}
	end := offset + length
	if end > s.storageLength {
		end = s.storageLength
	}
	if end <= offset || offset < s.startOffset {
		c.mu.Unlock()
		return nil, nil
	}
	plan := planChunkReads(s.chunks, offset, end)
	c.mu.Unlock()

	buf := make([]byte, end-offset)
	got, err := c.scatterGather(plan, buf)
	if got == 0 {
		return nil, err
	}
	return buf[:got], nil
}

// ChunkList returns the segment's LTS chunk layout (tests, tooling).
func (c *Container) ChunkList(name string) ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.segments[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrSegmentNotFound, name)
	}
	out := make([]string, len(s.chunks))
	for i, ch := range s.chunks {
		out[i] = ch.Name
	}
	return out, nil
}
