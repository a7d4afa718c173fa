package segstore

import (
	"github.com/pravega-go/pravega/internal/readindex"
	"github.com/pravega-go/pravega/internal/wal"
)

// ChunkInfo is one LTS chunk's metadata as the container records it.
type ChunkInfo struct {
	Name        string
	StartOffset int64
	Length      int64
}

// SegmentDebug is a consistent snapshot of one segment's internal state,
// taken under the container lock. It exists for the recovery-invariant
// checker (internal/faultinject) and for tests; production code paths never
// call it.
type SegmentDebug struct {
	Name          string
	Length        int64
	StartOffset   int64
	StorageLength int64
	Sealed        bool
	Chunks        []ChunkInfo
	// UnflushedBytes is the byte count of this segment's un-tiered queue.
	UnflushedBytes int64
	// UnflushedStart is the segment offset of the first queued item; only
	// meaningful when HasUnflushed.
	UnflushedStart int64
	HasUnflushed   bool
	// LowestUnflushedAddr is the smallest WAL address still needed to
	// recover this segment's un-tiered data; only meaningful when
	// HasUnflushed.
	LowestUnflushedAddr wal.Address
	// Attributes is a copy of the writer-dedup attribute table.
	Attributes map[string]int64
	// CacheEntries and CacheBytes count the segment's cached read-index
	// entries; MaxCacheEntryBytes is the longest of them.
	CacheEntries       int
	CacheBytes         int64
	MaxCacheEntryBytes int64
	// ReadIndexErr is the read index's own consistency check: entries
	// overlap, or its use list and its cached entries disagree.
	ReadIndexErr error
}

// DebugState snapshots every segment's internal state.
func (c *Container) DebugState() map[string]SegmentDebug {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]SegmentDebug, len(c.segments))
	for name, s := range c.segments {
		d := SegmentDebug{
			Name:          name,
			Length:        s.length,
			StartOffset:   s.startOffset,
			StorageLength: s.storageLength,
			Sealed:        s.sealed,
			Attributes:    make(map[string]int64, len(s.attributes)),
		}
		for _, ch := range s.chunks {
			d.Chunks = append(d.Chunks, ChunkInfo{
				Name:        ch.Name,
				StartOffset: ch.StartOffset,
				Length:      ch.Length,
			})
		}
		for w, n := range s.attributes {
			d.Attributes[w] = n
		}
		for _, e := range s.index.Entries() {
			if e.Where != readindex.InCache {
				continue
			}
			d.CacheEntries++
			d.CacheBytes += e.Length
			d.MaxCacheEntryBytes = max(d.MaxCacheEntryBytes, e.Length)
		}
		d.ReadIndexErr = s.index.Validate()
		if len(s.unflushed) > 0 {
			d.HasUnflushed = true
			d.UnflushedStart = s.unflushed[0].offset
			low := s.unflushed[0].addr
			for _, it := range s.unflushed {
				d.UnflushedBytes += int64(len(it.data))
				if it.addr.Less(low) {
					low = it.addr
				}
			}
			d.LowestUnflushedAddr = low
		}
		out[name] = d
	}
	return out
}

// TailWaiters reports how many tail-read long-polls are currently
// registered on the segment (tests: waiter-leak regression checks).
func (c *Container) TailWaiters(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.segments[name]
	if !ok {
		return 0
	}
	return len(s.waiters)
}

// Quiesce runs fn with the tiering engine paused between rounds: no flush,
// adoption or WAL truncation executes while fn does. The invariant
// checker uses it to observe chunk metadata, the un-tiered queue and the
// WAL watermark as one consistent cut. fn must not block on tiering
// progress (FlushAll would deadlock).
func (c *Container) Quiesce(fn func()) {
	c.flushRunMu.Lock()
	defer c.flushRunMu.Unlock()
	fn()
}

// WALTruncatedBefore exposes the WAL's truncation watermark (first retained
// ledger sequence) for recovery validation.
func (c *Container) WALTruncatedBefore() int64 {
	return c.log.TruncatedBefore()
}
