// Package readindex implements the segment read index of §4.2: per segment,
// the entries that locate contiguous ranges of its bytes, either in the
// block cache or in long-term storage, kept in offset order. Pravega keeps
// them in an AVL tree because it installs LTS reads into its cache anywhere
// in a segment; here the segment container only ever adds at a segment's
// tail (LTS reads bypass the cache), so a slice in offset order, searched by
// binary search, does the same job: a tail add is an append, a lookup is a
// floor search. Cached entries are also kept in order of last use, the
// usage metadata that drives cache eviction: choosing what to evict costs
// the entries evicted, however many the index holds, and removing them is
// one pass over the slice.
//
// The index does not track the segment's length or truncation point; the
// segment state that owns those facts checks them before each lookup.
package readindex

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/pravega-go/pravega/internal/blockcache"
)

// ErrGap is returned by Find for an offset no entry covers.
var ErrGap = errors.New("readindex: offset not covered by any entry")

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
	evicted      bool // dropped by EvictStalest, not yet removed from items
}

// Index is the per-segment read index. It is safe for concurrent use.
type Index struct {
	mu    sync.Mutex
	items []*item // by Offset, ascending; offsets are distinct

	oldest, newest *item // cached entries, least recently used first
	cachedBytes    int64 // Σ Length of cached entries
	removals       int64 // cached entries dropped so far
}

// New creates an empty index.
func New() *Index { return &Index{} }

// search returns the position of the first item at or after offset, and
// whether that item starts at offset.
func (x *Index) search(offset int64) (int, bool) {
	return slices.BinarySearchFunc(x.items, offset, func(it *item, off int64) int {
		return cmp.Compare(it.Offset, off)
	})
}

// tail returns the item with the highest offset, or nil.
func (x *Index) tail() *item {
	if len(x.items) == 0 {
		return nil
	}
	return x.items[len(x.items)-1]
}

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

// forget takes a cached item out of the use list and the accounting; the
// caller removes it from items.
func (x *Index) forget(it *item) {
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
	it := &item{Entry: e}
	if i, found := x.search(e.Offset); found {
		x.forget(x.items[i])
		x.items[i] = it
	} else {
		x.items = slices.Insert(x.items, i, it)
	}
	if e.Where == InCache {
		x.link(it)
		x.cachedBytes += e.Length
	}
}

// TailEntry returns a copy of the entry with the highest offset, or false.
func (x *Index) TailEntry() (Entry, bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	it := x.tail()
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
	it := x.tail()
	if it == nil || it.Where != InCache {
		return false
	}
	it.Length += n
	it.CacheAddr = newAddr
	x.cachedBytes += n
	return true
}

// Find returns the entry containing offset and marks it most recently used.
func (x *Index) Find(offset int64) (Entry, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	i, found := x.search(offset)
	if !found {
		i-- // the floor: the last entry starting before offset
	}
	if i < 0 || offset >= x.items[i].End() {
		return Entry{}, fmt.Errorf("%w: offset %d", ErrGap, offset)
	}
	it := x.items[i]
	if it.Where == InCache && it != x.newest {
		x.unlink(it)
		x.link(it)
	}
	return it.Entry, nil
}

// TruncateBefore drops the entries that end at or before offset, a prefix
// of the index. It returns the cache addresses of dropped cached entries so
// the caller can free them.
func (x *Index) TruncateBefore(offset int64) []blockcache.Address {
	x.mu.Lock()
	defer x.mu.Unlock()
	n := 0
	var freed []blockcache.Address
	for _, it := range x.items {
		if it.End() > offset {
			break
		}
		if it.Where == InCache {
			freed = append(freed, it.CacheAddr)
		}
		x.forget(it)
		n++
	}
	x.items = slices.Delete(x.items, 0, n)
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
			x.forget(it)
			it.evicted = true
		}
		it = next
	}
	if len(freed) > 0 {
		x.items = slices.DeleteFunc(x.items, func(it *item) bool { return it.evicted })
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

// Entries returns a copy of all entries in offset order (tests/debug).
func (x *Index) Entries() []Entry {
	x.mu.Lock()
	defer x.mu.Unlock()
	out := make([]Entry, len(x.items))
	for i, it := range x.items {
		out[i] = it.Entry
	}
	return out
}

// Validate checks that the entries are in offset order without overlap, and
// that the use list holds exactly the cached entries. Used by property tests.
func (x *Index) Validate() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	var cached, cachedBytes int64
	for i, it := range x.items {
		if i > 0 && it.Offset < x.items[i-1].End() {
			return fmt.Errorf("readindex: entries out of order or overlapping: %v then %v", x.items[i-1].Entry, it.Entry)
		}
		if it.Where == InCache {
			cached++
			cachedBytes += it.Length
		}
	}
	var listed int64
	for it := x.oldest; it != nil; it = it.newer {
		if i, found := x.search(it.Offset); it.Where != InCache || !found || x.items[i] != it {
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
