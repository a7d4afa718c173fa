package segstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/blockcache"
	"github.com/pravega-go/pravega/internal/lts"
	"github.com/pravega-go/pravega/internal/obs"
	"github.com/pravega-go/pravega/internal/sim"
)

// cachedSegment builds a container holding one segment of size bytes of
// pattern data, appended in pieces of piece bytes and fully tiered.
func cachedSegment(t testing.TB, cfg ContainerConfig, name string, size, piece int) *Container {
	t.Helper()
	c, err := NewContainer(cfg)
	if err != nil {
		t.Fatalf("NewContainer: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	if err := c.CreateSegment(name); err != nil {
		t.Fatalf("CreateSegment: %v", err)
	}
	for off := 0; off < size; off += piece {
		if _, err := c.Append(name, pattern(int64(off), min(piece, size-off)), "", 0, 1); err != nil {
			t.Fatalf("Append@%d: %v", off, err)
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	return c
}

// checkEntryBound fails the test when any cache entry of the container is
// longer than the bound or its read indexes are inconsistent.
func checkEntryBound(t testing.TB, c *Container) {
	t.Helper()
	for name, d := range c.DebugState() {
		if d.MaxCacheEntryBytes > maxCacheEntryBytes {
			t.Errorf("%s: cache entry of %d bytes, bound %d", name, d.MaxCacheEntryBytes, maxCacheEntryBytes)
		}
		if d.ReadIndexErr != nil {
			t.Errorf("%s: %v", name, d.ReadIndexErr)
		}
	}
}

// TestCacheHoldsTailAfterOverflow: a segment four times the cache leaves the
// cache holding its newest bytes, not its oldest.
func TestCacheHoldsTailAfterOverflow(t *testing.T) {
	const (
		seg   = "s/t/0"
		total = 16 << 20
		piece = 64 << 10
	)
	env := newTestEnv(t)
	cfg := env.containerConfig(1)
	cfg.Cache = blockcache.Config{MaxBuffers: 2} // 4 MiB
	// Keep the un-tiered backlog below the cache, so there is always
	// something evictable and no append goes uncached.
	cfg.MaxUnflushedBytes = 1 << 20
	evictions := mCacheEvictions.Value()
	c := cachedSegment(t, cfg, seg, total, piece)

	read := func(off int64) (hit, fromLTS bool) {
		t.Helper()
		hits, catchups := mCacheHits.Value(), mCatchupReads.Value()
		res, err := c.Read(seg, off, piece, 0)
		if err != nil {
			t.Fatalf("Read@%d: %v", off, err)
		}
		if !bytes.Equal(res.Data, pattern(off, piece)) {
			t.Fatalf("Read@%d: wrong bytes (%d returned)", off, len(res.Data))
		}
		return mCacheHits.Value() > hits, mCatchupReads.Value() > catchups
	}
	if hit, _ := read(total - piece); !hit {
		t.Error("the segment's last 64 KiB were not served from the cache")
	}
	if hit, fromLTS := read(0); hit || !fromLTS {
		t.Errorf("the segment's first 64 KiB: cache hit %v, LTS read %v; want an LTS read", hit, fromLTS)
	}
	if got := mCacheEvictions.Value() - evictions; got == 0 {
		t.Error("no cache entry was evicted")
	}
	if st := c.cache.Stats(); st.UsedBytes > c.cache.MaxBytes() {
		t.Errorf("cache holds %d bytes, capacity %d", st.UsedBytes, c.cache.MaxBytes())
	}
	checkEntryBound(t, c)
}

// TestCachedReadCostIndependentOfSegmentLength counts, not times: a tail
// read copies the bytes it returns and allocates the same whether the
// segment holds 1 MiB or 64.
func TestCachedReadCostIndependentOfSegmentLength(t *testing.T) {
	const blockSize = 4096
	readBytes := obs.Default().Counter("pravega_blockcache_read_bytes_total", "")
	sizes := []int{1 << 20, 64 << 20}
	allocs := make([]float64, len(sizes))
	for i, size := range sizes {
		seg := fmt.Sprintf("s/t/%d", i)
		env := newTestEnv(t)
		c := cachedSegment(t, env.containerConfig(1), seg, size, 1<<20)
		rng := rand.New(rand.NewSource(int64(size)))
		before, hits := readBytes.Value(), mCacheHits.Value()
		var returned int64
		const reads = 100
		for r := 0; r < reads; r++ {
			n := 1 + rng.Intn(blockSize)
			off := int64(size - n - rng.Intn(2*blockSize))
			res, err := c.Read(seg, off, n, 0)
			if err != nil {
				t.Fatalf("Read@%d: %v", off, err)
			}
			if !bytes.Equal(res.Data, pattern(off, n)) {
				t.Fatalf("%d MiB segment: Read@%d+%d returned wrong bytes", size>>20, off, n)
			}
			returned += int64(len(res.Data))
		}
		if got := mCacheHits.Value() - hits; got != reads {
			t.Fatalf("%d MiB segment: %d of %d tail reads were cache hits", size>>20, got, reads)
		}
		if copied := readBytes.Value() - before; copied > returned+reads*blockSize {
			t.Errorf("%d MiB segment: %d tail reads returned %d bytes and copied %d out of the cache",
				size>>20, reads, returned, copied)
		}
		allocs[i] = testing.AllocsPerRun(100, func() {
			if _, err := c.Read(seg, int64(size-blockSize), blockSize, 0); err != nil {
				t.Fatal(err)
			}
		})
		checkEntryBound(t, c)
		_ = c.Close() // before the next one takes another 64 MiB
	}
	if allocs[0] != allocs[1] {
		t.Errorf("a cached read allocates %v times on a %d MiB segment and %v on a %d MiB one",
			allocs[0], sizes[0]>>20, allocs[1], sizes[1]>>20)
	}
}

// BenchmarkTailReadLongSegment reads the last 4 KiB of a cached segment.
// The cost must not depend on how much was written before.
func BenchmarkTailReadLongSegment(b *testing.B) {
	for _, mib := range []int{1, 16, 64} {
		b.Run(fmt.Sprintf("%dMiB", mib), func(b *testing.B) {
			const n = 4096
			size := mib << 20
			env := newTestEnv(b)
			c := cachedSegment(b, env.containerConfig(1), "s/b/0", size, 1<<20)
			b.SetBytes(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := c.Read("s/b/0", int64(size-n), n, 0)
				if err != nil || len(res.Data) != n {
					b.Fatalf("Read: %d bytes, %v", len(res.Data), err)
				}
			}
		})
	}
}

// TestCachedReadRacesAppendEvictTruncate runs the unlocked cache copy beside
// everything that can pull blocks from under it: appends that grow and close
// the entry being read, evictions forced by a cache a fraction of the bytes
// written, truncations and a deletion. Every byte a read returns must be the
// byte written at that offset.
func TestCachedReadRacesAppendEvictTruncate(t *testing.T) {
	const (
		seg   = "s/t/0"
		total = 24 << 20
		// window is how far behind the tail the sweeping reader and the
		// truncations stay: inside what a 4 MiB cache can hold.
		window = 3 << 20
	)
	env := newTestEnv(t)
	cfg := env.containerConfig(1)
	cfg.Cache = blockcache.Config{MaxBuffers: 2} // 4 MiB
	cfg.FlushSizeBytes = 64 << 10
	cfg.FlushInterval = 2 * time.Millisecond
	cfg.MaxUnflushedBytes = 1 << 20
	c, err := NewContainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	hits, evictions := mCacheHits.Value(), mCacheEvictions.Value()

	var length atomic.Int64
	gone := make(chan struct{}) // closed once the segment is deleted
	var wg sync.WaitGroup
	// verify checks one read's outcome and reports whether the reader
	// should go on.
	verify := func(who string, off int64, res ReadResult, err error) bool {
		switch {
		case errors.Is(err, ErrSegmentNotFound):
			select {
			case <-gone:
			default:
				t.Errorf("%s: read@%d: %v before the segment was deleted", who, off, err)
			}
			return false
		case errors.Is(err, ErrSegmentTruncated):
			return true
		case err != nil:
			t.Errorf("%s: read@%d: %v", who, off, err)
			return false
		}
		if !bytes.Equal(res.Data, pattern(off, len(res.Data))) {
			t.Errorf("%s: read@%d returned %d bytes that are not the bytes written there", who, off, len(res.Data))
			return false
		}
		return true
	}

	wg.Add(4)
	go func() { // appender: mostly small, now and then larger than an entry
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for off := int64(0); off < total; {
			n := 1 + rng.Intn(48<<10)
			if rng.Intn(40) == 0 {
				n = maxCacheEntryBytes + rng.Intn(2*maxCacheEntryBytes)
			}
			if _, err := c.Append(seg, pattern(off, n), "", 0, 1); err != nil {
				t.Errorf("Append@%d: %v", off, err)
				return
			}
			off += int64(n)
			length.Store(off)
		}
	}()
	go func() { // tail reader
		defer wg.Done()
		for off := int64(0); ; {
			res, err := c.Read(seg, off, 64<<10, 20*time.Millisecond)
			if !verify("tail reader", off, res, err) {
				return
			}
			if errors.Is(err, ErrSegmentTruncated) {
				off = length.Load()
			}
			off += int64(len(res.Data))
		}
	}()
	go func() { // sweeping reader: over and over through the cached window
		defer wg.Done()
		for {
			end := length.Load()
			for off := max(end-window, 0); off < end; {
				res, err := c.Read(seg, off, 1<<20, 0)
				if !verify("sweeping reader", off, res, err) {
					return
				}
				if errors.Is(err, ErrSegmentTruncated) {
					break
				}
				off += int64(len(res.Data))
			}
			time.Sleep(100 * time.Microsecond) // nothing appended yet
		}
	}()
	go func() { // eviction alone for the first half, then truncations too, then the deletion
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		for length.Load() < total {
			time.Sleep(3 * time.Millisecond)
			if at := length.Load() - window + rng.Int63n(window/2); at > total/2 {
				if err := c.Truncate(seg, at); err != nil {
					t.Errorf("Truncate(%d): %v", at, err)
					return
				}
			}
		}
		checkEntryBound(t, c)
		close(gone)
		if err := c.DeleteSegment(seg); err != nil {
			t.Errorf("DeleteSegment: %v", err)
		}
	}()
	wg.Wait()
	if mCacheHits.Value() == hits || mCacheEvictions.Value() == evictions {
		t.Errorf("the run had %d cache hits and %d evictions; it must have both",
			mCacheHits.Value()-hits, mCacheEvictions.Value()-evictions)
	}
	if st := c.cache.Stats(); st.UsedBytes != 0 {
		t.Errorf("%d bytes left in the cache after its only segment was deleted", st.UsedBytes)
	}
}

// TestUntieredBytesBeyondCacheStayReadable: while nothing can be evicted the
// cache takes what fits, later appends are read from the un-tiered queue and
// eviction passes stop; once the backlog tiers, the cache takes appends
// again.
func TestUntieredBytesBeyondCacheStayReadable(t *testing.T) {
	const (
		seg   = "s/t/0"
		piece = 1024
	)
	env := newTestEnv(t)
	store := lts.NewSim(env.lts, sim.ObjectStoreConfig{}) // no pacing: only the outage switch
	store.SetUnavailable(true)
	cfg := env.containerConfig(1)
	cfg.LTS = store
	cfg.Cache = blockcache.Config{BlockSize: 1024, BlocksPerBuffer: 8, MaxBuffers: 2} // 16 KiB
	cfg.FlushInterval = 5 * time.Millisecond
	c, err := NewContainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	appendPieces := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if _, err := c.Append(seg, pattern(int64(i*piece), piece), "", 0, 1); err != nil {
				t.Fatalf("Append %d: %v", i, err)
			}
		}
	}
	readAll := func(pieces int) (hits int64) {
		t.Helper()
		before := mCacheHits.Value()
		for off := int64(0); off < int64(pieces*piece); {
			res, err := c.Read(seg, off, 3*piece, 0)
			if err != nil || len(res.Data) == 0 {
				t.Fatalf("Read@%d: %d bytes, %v", off, len(res.Data), err)
			}
			if !bytes.Equal(res.Data, pattern(off, len(res.Data))) {
				t.Fatalf("Read@%d returned wrong bytes", off)
			}
			off += int64(len(res.Data))
		}
		return mCacheHits.Value() - before
	}
	appendPieces(0, 64) // 64 KiB, none of it tiered: four times the cache
	c.mu.Lock()
	stalled := c.evictStalled
	c.mu.Unlock()
	if !stalled {
		t.Error("eviction passes were not suspended with nothing evictable")
	}
	if hits := readAll(64); hits == 0 {
		t.Error("no read was served from the cache")
	}
	if d := c.DebugState()[seg]; d.CacheBytes != 16<<10 {
		t.Errorf("cache holds %d bytes of the segment, want the 16 KiB that fit", d.CacheBytes)
	}

	store.SetUnavailable(false)
	if err := c.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	evictions := mCacheEvictions.Value()
	appendPieces(64, 80)
	if mCacheEvictions.Value() == evictions {
		t.Error("nothing evicted after the backlog tiered")
	}
	hits := mCacheHits.Value()
	res, err := c.Read(seg, 79*piece, piece, 0)
	if err != nil || !bytes.Equal(res.Data, pattern(79*piece, piece)) {
		t.Fatalf("tail read: %d bytes, %v", len(res.Data), err)
	}
	if mCacheHits.Value() == hits {
		t.Error("the newest append was not cached after the backlog tiered")
	}
	readAll(80)
	checkEntryBound(t, c)
}
