package readindex

import (
	"errors"
	"fmt"
	"sync"

	"github.com/pravega-go/pravega/internal/blockcache"
)

// Errors returned by the index.
var (
	ErrTruncated = errors.New("readindex: offset is before the segment's truncation point")
	ErrGap       = errors.New("readindex: offset not covered by any entry")
)

// Location says where an entry's bytes live.
type Location int

// Entry locations.
const (
	// InCache means the bytes are in the block cache at CacheAddr.
	InCache Location = iota
	// InLTS means the bytes must be fetched from long-term storage. The
	// segment container drops an evicted entry rather than keep one of
	// these; the index itself holds whatever it is given.
	InLTS
)

// Entry describes one contiguous range of segment bytes.
type Entry struct {
	// Offset is the range's start offset within the segment.
	Offset int64
	// Length of the range.
	Length int64
	// Where the bytes are.
	Where Location
	// CacheAddr locates the bytes when Where == InCache.
	CacheAddr blockcache.Address
}

// End returns the offset one past the entry's last byte.
func (e *Entry) End() int64 { return e.Offset + e.Length }

// item is an entry as the index holds it. Cached entries are also linked
// into a list ordered by last use (the "usage patterns" metadata of §4.2):
// Add and Find move an entry to the newest end, eviction takes from the
// oldest, and neither has to look at the entries in between.
type item struct {
	Entry
	older, newer *item
}

// Index is the per-segment read index. It is safe for concurrent use.
type Index struct {
	mu        sync.Mutex
	t         tree
	truncated int64 // offsets below this are gone
	length    int64 // total segment length indexed (high-water mark)

	oldest, newest *item // cached entries, least recently used first
	cachedBytes    int64 // Σ Length of cached entries
	removals       int64 // cached entries dropped so far
}

// New creates an empty index.
func New() *Index { return &Index{} }

// link puts a cached item at the newest end of the use list.
func (x *Index) link(it *item) {
	it.older, it.newer = x.newest, nil
	if x.newest != nil {
		x.newest.newer = it
	} else {
		x.oldest = it
	}
	x.newest = it
}

// unlink takes a cached item out of the use list.
func (x *Index) unlink(it *item) {
	if it.older != nil {
		it.older.newer = it.newer
	} else {
		x.oldest = it.newer
	}
	if it.newer != nil {
		it.newer.older = it.older
	} else {
		x.newest = it.older
	}
	it.older, it.newer = nil, nil
}

// drop removes an item from the tree and, when cached, from the use list.
func (x *Index) drop(it *item) {
	x.t.delete(it.Offset)
	if it.Where == InCache {
		x.unlink(it)
		x.cachedBytes -= it.Length
		x.removals++
	}
}

// Add registers a new entry, as the most recently used one when it is
// cached. An entry already at the same offset is replaced. Contiguous
// entries are never merged: the segment container grows the last entry with
// ExtendTail while that entry is open and Adds a new one once it is closed.
func (x *Index) Add(e Entry) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if old := x.t.get(e.Offset); old != nil {
		x.drop(old)
	}
	it := &item{Entry: e}
	x.t.put(e.Offset, it)
	if e.Where == InCache {
		x.link(it)
		x.cachedBytes += e.Length
	}
	if end := e.End(); end > x.length {
		x.length = end
	}
}

// TailEntry returns a copy of the entry with the highest offset, or false.
func (x *Index) TailEntry() (Entry, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	it := x.t.max()
	if it == nil {
		return Entry{}, false
	}
	return it.Entry, true
}

// ExtendTail grows the last entry by n bytes and updates its cache address
// (appends write into the entry's last block, possibly chaining a new one).
// It returns false when the index is empty or the tail is not cached.
func (x *Index) ExtendTail(n int64, newAddr blockcache.Address) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	it := x.t.max()
	if it == nil || it.Where != InCache {
		return false
	}
	it.Length += n
	it.CacheAddr = newAddr
	x.cachedBytes += n
	if end := it.End(); end > x.length {
		x.length = end
	}
	return true
}

// Find returns the entry containing offset and marks it most recently used.
func (x *Index) Find(offset int64) (Entry, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if offset < x.truncated {
		return Entry{}, fmt.Errorf("%w: offset %d < truncation %d", ErrTruncated, offset, x.truncated)
	}
	it := x.t.floor(offset)
	if it == nil || offset >= it.End() {
		return Entry{}, fmt.Errorf("%w: offset %d", ErrGap, offset)
	}
	if it.Where == InCache && it != x.newest {
		x.unlink(it)
		x.link(it)
	}
	return it.Entry, nil
}

// TruncateBefore drops all entries that end at or before offset and records
// the truncation point. It returns the cache addresses of dropped cached
// entries so the caller can free them.
func (x *Index) TruncateBefore(offset int64) []blockcache.Address {
	x.mu.Lock()
	defer x.mu.Unlock()
	if offset > x.truncated {
		x.truncated = offset
	}
	var drop []*item
	x.t.ascend(0, offset, func(it *item) bool {
		if it.End() <= offset {
			drop = append(drop, it)
		}
		return true
	})
	var freed []blockcache.Address
	for _, it := range drop {
		if it.Where == InCache {
			freed = append(freed, it.CacheAddr)
		}
		x.drop(it)
	}
	return freed
}

// EvictStalest drops least-recently-used cached entries that end at or
// before limit (the caller's "safe elsewhere" watermark) until it has
// dropped want bytes or run out, and returns their cache addresses for the
// caller to free. An evicted range simply leaves the index: a later Find
// there reports ErrGap. Entries beyond limit are stepped over, which costs
// nothing while they are the newest ones, as they are when limit trails the
// appends.
func (x *Index) EvictStalest(limit, want int64) []blockcache.Address {
	x.mu.Lock()
	defer x.mu.Unlock()
	var freed []blockcache.Address
	for it := x.oldest; it != nil && want > 0; {
		next := it.newer
		if it.End() <= limit {
			freed = append(freed, it.CacheAddr)
			want -= it.Length
			x.drop(it)
		}
		it = next
	}
	return freed
}

// CachedBytes returns the total length of the cached entries.
func (x *Index) CachedBytes() int64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.cachedBytes
}

// Removals counts the cached entries dropped so far, by truncation, eviction
// or replacement. A reader that copies cache bytes without excluding those
// compares the count before and after: unchanged means every cached entry
// it looked up was still there, at most longer, when the copy finished.
func (x *Index) Removals() int64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.removals
}

// Truncation returns the current truncation offset.
func (x *Index) Truncation() int64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.truncated
}

// Length returns the highest indexed offset (the segment length as visible
// to readers).
func (x *Index) Length() int64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.length
}

// Entries returns a copy of all entries in offset order (tests/debug).
func (x *Index) Entries() []Entry {
	x.mu.Lock()
	defer x.mu.Unlock()
	out := make([]Entry, 0, x.t.size)
	x.t.ascend(-1<<62, 1<<62, func(it *item) bool {
		out = append(out, it.Entry)
		return true
	})
	return out
}

// Validate checks the tree invariants, that no two entries overlap, and that
// the use list holds exactly the cached entries. Used by property tests.
func (x *Index) Validate() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if !x.t.validate() {
		return errors.New("readindex: AVL invariant violated")
	}
	var prev *item
	var err error
	var cached, cachedBytes int64
	x.t.ascend(-1<<62, 1<<62, func(it *item) bool {
		if prev != nil && it.Offset < prev.End() {
			err = fmt.Errorf("readindex: entries overlap: %v then %v", prev.Entry, it.Entry)
			return false
		}
		if it.Where == InCache {
			cached++
			cachedBytes += it.Length
		}
		prev = it
		return true
	})
	if err != nil {
		return err
	}
	var listed int64
	for it := x.oldest; it != nil; it = it.newer {
		if it.Where != InCache || x.t.get(it.Offset) != it {
			return fmt.Errorf("readindex: use list holds %v, which is not a cached entry of the index", it.Entry)
		}
		listed++
	}
	if listed != cached || cachedBytes != x.cachedBytes {
		return fmt.Errorf("readindex: use list has %d entries and %d bytes accounted, index has %d cached entries of %d bytes",
			listed, x.cachedBytes, cached, cachedBytes)
	}
	return nil
}
