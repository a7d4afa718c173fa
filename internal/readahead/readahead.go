// Package readahead implements the catch-up prefetcher of the historical
// read path (§4.2, §5.7). Every historical read — a consumer draining a
// backlog from long-term storage, one fetch loop per segment — is reported
// via Observe, and the prefetcher pipelines the next Depth fixed-size ranges
// after it into its own bounded memory budget, so the reader's next
// requests are served from memory while the fetches for the ranges after
// them are already in flight.
//
// The budget is deliberately separate from the tail block cache: historical
// scans stream large ranges exactly once, and letting them allocate there
// would evict the tail working set (the paper's usage-aware "no pollution"
// rule, §4.2). Fetches are deduplicated single-flight per range, so many
// readers catching up over the same backlog — the Fig. 12 drain scenario —
// share one LTS fetch per range instead of multiplying load.
package readahead

import (
	"sync"

	"github.com/pravega-go/pravega/internal/obs"
)

// Process-wide series for the prefetcher. Shared by all containers.
var (
	mHits = obs.Default().Counter("pravega_readahead_hits_total",
		"Historical reads served from the readahead buffer")
	mMisses = obs.Default().Counter("pravega_readahead_misses_total",
		"Historical reads that went to LTS directly (no buffered range)")
	mHitBytes = obs.Default().Counter("pravega_readahead_hit_bytes_total",
		"Bytes served to readers from the readahead buffer")
	mFetchedBytes = obs.Default().Counter("pravega_readahead_fetched_bytes_total",
		"Bytes prefetched from LTS ahead of catch-up readers")
	mDropped = obs.Default().Counter("pravega_readahead_dropped_total",
		"Prefetched ranges discarded before any reader consumed them (eviction, truncation)")
	mInflight = obs.Default().Gauge("pravega_readahead_inflight",
		"Prefetch fetches currently in flight")
	mBufferedBytes = obs.Default().Gauge("pravega_readahead_buffered_bytes",
		"Bytes currently held in readahead buffers (all containers)")
)

// Fetch reads length bytes of a segment starting at offset from the backing
// store. It may return fewer bytes than requested (range past the tiered
// prefix) — the prefetcher discards short results. Fetch runs on a
// prefetcher goroutine and must be safe for concurrent use.
type Fetch func(segment string, offset, length int64) ([]byte, error)

const (
	// RangeBytes is the prefetch unit; ranges are aligned to multiples of
	// it.
	RangeBytes = 1 << 20
	// BudgetBytes bounds the total buffered bytes; the least recently used
	// ready range is evicted when a new fetch would exceed it.
	BudgetBytes = 16 << 20
)

// Config sizes a Prefetcher.
type Config struct {
	// Depth is how many ranges are kept in flight or buffered after the
	// latest read (default 4).
	Depth int
	// Workers bounds concurrent fetches (default 4).
	Workers int
	// Fetch reads a range from the backing store.
	Fetch Fetch
}

func (c *Config) defaults() {
	if c.Depth <= 0 {
		c.Depth = 4
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
}

// rangeKey identifies one aligned prefetch range of one segment.
type rangeKey struct {
	segment string
	index   int64 // offset / RangeBytes
}

// entry is one range's buffer. While the fetch is in flight, done is open
// and data nil; when it completes, data is set (or the entry removed, on
// error/short read) and done closed.
type entry struct {
	key  rangeKey
	data []byte
	done chan struct{}
	used bool // a reader consumed from it (eviction-accounting only)

	// LRU list links (most recent at head.next).
	prev, next *entry
}

// Prefetcher pipelines range fetches after every historical read. Safe for
// concurrent use.
type Prefetcher struct {
	cfg Config

	mu      sync.Mutex
	entries map[rangeKey]*entry
	head    entry // LRU sentinel
	used    int64
	closed  bool

	sem chan struct{} // bounds concurrent fetches
	wg  sync.WaitGroup
}

// New builds a Prefetcher. cfg.Fetch must be non-nil.
func New(cfg Config) *Prefetcher {
	cfg.defaults()
	p := &Prefetcher{
		cfg:     cfg,
		entries: make(map[rangeKey]*entry),
		sem:     make(chan struct{}, cfg.Workers),
	}
	p.head.prev = &p.head
	p.head.next = &p.head
	return p
}

// Close stops new fetches and waits for in-flight ones to finish.
func (p *Prefetcher) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *Prefetcher) lruUnlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

func (p *Prefetcher) lruFront(e *entry) {
	if e.prev != nil {
		p.lruUnlink(e)
	}
	e.next = p.head.next
	e.prev = &p.head
	e.next.prev = e
	p.head.next = e
}

// Get returns buffered bytes at offset: the tail of the covering range,
// starting at offset. When the covering range's fetch is still in flight,
// Get waits for it — that wait is the single-flight dedup: concurrent
// catch-up readers over the same backlog share one fetch. The returned
// slice must not be modified.
func (p *Prefetcher) Get(segment string, offset int64) ([]byte, bool) {
	key := rangeKey{segment, offset / RangeBytes}
	p.mu.Lock()
	e, ok := p.entries[key]
	if !ok {
		p.mu.Unlock()
		mMisses.Inc()
		return nil, false
	}
	e.used = true
	p.lruFront(e)
	done := e.done
	p.mu.Unlock()
	<-done
	p.mu.Lock()
	// Re-look up: the entry is removed on fetch error/short read, and may
	// have been evicted or invalidated while we waited.
	e, ok = p.entries[key]
	var data []byte
	if ok && e.data != nil {
		from := offset - key.index*RangeBytes
		if from < int64(len(e.data)) {
			data = e.data[from:]
		}
	}
	p.mu.Unlock()
	if data == nil {
		mMisses.Inc()
		return nil, false
	}
	mHits.Inc()
	mHitBytes.Add(int64(len(data)))
	return data, true
}

// Observe records that a historical read of [offset, end) was served (from
// LTS directly or from the readahead buffer) and schedules the next Depth
// ranges after end, clipped to limit, the segment's tiered prefix. Readers
// read each segment sequentially, so the read after this one starts at end;
// offset only rules out an empty read.
func (p *Prefetcher) Observe(segment string, offset, end, limit int64) {
	if end <= offset {
		return
	}
	first := (end + RangeBytes - 1) / RangeBytes // partial range at end: start at the next boundary
	p.mu.Lock()
	for idx := first; idx < first+int64(p.cfg.Depth); idx++ {
		if (idx+1)*RangeBytes > limit {
			break // only full ranges are worth buffering; the tail is cached
		}
		p.scheduleLocked(rangeKey{segment, idx})
	}
	p.mu.Unlock()
}

// scheduleLocked starts a fetch for key unless it is already buffered or in
// flight. Caller holds p.mu.
func (p *Prefetcher) scheduleLocked(key rangeKey) {
	if p.closed {
		return
	}
	if _, ok := p.entries[key]; ok {
		return
	}
	// Make room: evict ready ranges, least recently used first. In-flight
	// entries are skipped (their goroutine still writes to them).
	for p.used+RangeBytes > BudgetBytes {
		victim := p.head.prev
		for victim != &p.head && victim.data == nil {
			victim = victim.prev
		}
		if victim == &p.head {
			return // budget full of in-flight fetches; skip this range
		}
		p.removeLocked(victim)
	}
	e := &entry{key: key, done: make(chan struct{})}
	p.entries[key] = e
	p.used += RangeBytes
	p.lruFront(e)
	p.wg.Add(1)
	go p.fetch(e)
}

// removeLocked drops an entry and releases its budget. Caller holds p.mu.
func (p *Prefetcher) removeLocked(e *entry) {
	delete(p.entries, e.key)
	p.lruUnlink(e)
	if e.data != nil {
		p.used -= int64(len(e.data))
		mBufferedBytes.Add(-int64(len(e.data)))
	} else {
		p.used -= RangeBytes
	}
	if !e.used {
		mDropped.Inc()
	}
}

// fetch runs one range fetch on its own goroutine.
func (p *Prefetcher) fetch(e *entry) {
	defer p.wg.Done()
	p.sem <- struct{}{}
	mInflight.Add(1)
	offset := e.key.index * RangeBytes
	data, err := p.cfg.Fetch(e.key.segment, offset, RangeBytes)
	mInflight.Add(-1)
	<-p.sem

	p.mu.Lock()
	if p.entries[e.key] != e {
		// Invalidated while fetching; its budget was already released.
		p.mu.Unlock()
		close(e.done)
		return
	}
	if err != nil || int64(len(data)) < RangeBytes {
		// Failed or short (range reaches past the tiered prefix): a short
		// buffer would keep serving truncated reads, so drop it.
		p.removeLocked(e)
		p.mu.Unlock()
		close(e.done)
		return
	}
	e.data = data
	p.used += int64(len(data)) - RangeBytes // reconcile reservation
	mFetchedBytes.Add(int64(len(data)))
	mBufferedBytes.Add(int64(len(data)))
	p.mu.Unlock()
	close(e.done)
}

// Invalidate drops every buffered or in-flight range of the segment whose
// first byte is below limit. Truncation uses it so no reader is served
// pre-truncation bytes; segment deletion passes limit < 0 to mean
// "everything".
func (p *Prefetcher) Invalidate(segment string, limit int64) {
	p.mu.Lock()
	for key, e := range p.entries {
		if key.segment != segment {
			continue
		}
		if limit < 0 || key.index*RangeBytes < limit {
			p.removeLocked(e)
		}
	}
	p.mu.Unlock()
}

// BufferedBytes reports the budget currently in use (tests, debugging).
func (p *Prefetcher) BufferedBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used
}
