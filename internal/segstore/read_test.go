package segstore

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/lts"
	"github.com/pravega-go/pravega/internal/readindex"
)

// pattern fills a deterministic byte sequence for [offset, offset+n).
func pattern(offset int64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte((offset + int64(i)) % 251)
	}
	return out
}

// seedTieredSegment appends total bytes of pattern data in writeSize pieces,
// tiers everything to LTS and restarts the container, so reads of the
// segment must come from LTS chunks (nothing is cached after recovery).
func seedTieredSegment(t testing.TB, env *testEnv, cfg ContainerConfig, name string, total, writeSize int) *Container {
	t.Helper()
	c, err := NewContainer(cfg)
	if err != nil {
		t.Fatalf("NewContainer: %v", err)
	}
	if err := c.CreateSegment(name); err != nil {
		t.Fatalf("CreateSegment: %v", err)
	}
	for off := 0; off < total; off += writeSize {
		n := writeSize
		if off+n > total {
			n = total - off
		}
		if _, err := c.Append(name, pattern(int64(off), n), "", 0, 1); err != nil {
			t.Fatalf("Append@%d: %v", off, err)
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	c, err = NewContainer(cfg)
	if err != nil {
		t.Fatalf("NewContainer (restart): %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	dropCached(t, c, name)
	return c
}

// dropCached evicts every tiered cache entry of the segment, so subsequent
// reads below the storage watermark must come from LTS.
func dropCached(t testing.TB, c *Container, name string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.segments[name]
	for _, addr := range s.index.EvictStalest(s.storageLength, 1<<62) {
		if err := c.cache.Delete(addr); err != nil {
			t.Fatalf("cache delete: %v", err)
		}
	}
}

func TestReadSpansChunkBoundary(t *testing.T) {
	env := newTestEnv(t)
	cfg := env.containerConfig(1)
	cfg.ChunkSizeLimit = 4096
	cfg.FlushSizeBytes = 1
	cfg.ReadAheadRangeBytes = 8192
	const total = 64 << 10
	c := seedTieredSegment(t, env, cfg, "s/t/0", total, 1024)

	chunks, err := c.ChunkList("s/t/0")
	if err != nil {
		t.Fatalf("ChunkList: %v", err)
	}
	if len(chunks) < 2 {
		t.Fatalf("want multiple chunks, got %d", len(chunks))
	}

	// One large read must span every chunk boundary in a single call.
	res, err := c.Read("s/t/0", 0, total, 0)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(res.Data) != total {
		t.Fatalf("read %d bytes, want %d (read must not clip at a chunk boundary)", len(res.Data), total)
	}
	if !bytes.Equal(res.Data, pattern(0, total)) {
		t.Fatal("multi-chunk read returned wrong bytes")
	}

	// An unaligned read crossing one boundary.
	res, err = c.Read("s/t/0", 4000, 200, 0)
	if err != nil {
		t.Fatalf("Read@4000: %v", err)
	}
	if !bytes.Equal(res.Data, pattern(4000, 200)) {
		t.Fatal("boundary-crossing read returned wrong bytes")
	}
}

func TestSequentialCatchUpUsesReadahead(t *testing.T) {
	env := newTestEnv(t)
	cfg := env.containerConfig(1)
	cfg.ChunkSizeLimit = 4096
	cfg.FlushSizeBytes = 1
	cfg.ReadAheadRangeBytes = 4096
	cfg.ReadAheadDepth = 2
	const total = 64 << 10
	c := seedTieredSegment(t, env, cfg, "s/t/0", total, 1024)

	// Drive a sequential scan; after the first two reads line up, later
	// ranges are served from the prefetcher. Data must stay correct either
	// way, and the prefetcher must have buffered something.
	var off int64
	for off < total {
		res, err := c.Read("s/t/0", off, 4096, 0)
		if err != nil {
			t.Fatalf("Read@%d: %v", off, err)
		}
		if len(res.Data) == 0 {
			t.Fatalf("empty read@%d", off)
		}
		if !bytes.Equal(res.Data, pattern(off, len(res.Data))) {
			t.Fatalf("wrong bytes@%d", off)
		}
		off += int64(len(res.Data))
	}
	deadline := time.Now().Add(2 * time.Second)
	for c.ra.BufferedBytes() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if c.ra.BufferedBytes() == 0 {
		t.Fatal("sequential scan never engaged the readahead prefetcher")
	}
}

// blockingLTS wraps a ChunkStorage; when armed, Read parks until released.
// entered signals each blocked read so tests can synchronize with it.
type blockingLTS struct {
	lts.ChunkStorage
	armed       atomic.Bool
	entered     chan struct{}
	release     chan struct{}
	releaseOnce sync.Once
}

func newBlockingLTS(inner lts.ChunkStorage) *blockingLTS {
	return &blockingLTS{
		ChunkStorage: inner,
		entered:      make(chan struct{}, 64),
		release:      make(chan struct{}),
	}
}

func (b *blockingLTS) Read(name string, offset int64, buf []byte) (int, error) {
	if b.armed.Load() {
		select {
		case b.entered <- struct{}{}:
		default:
		}
		<-b.release
	}
	return b.ChunkStorage.Read(name, offset, buf)
}

// unblock disarms the gate and wakes every parked reader, exactly once.
func (b *blockingLTS) unblock() {
	b.armed.Store(false)
	b.releaseOnce.Do(func() { close(b.release) })
}

// TestTailPathLiveWhileLTSBlocked is the acceptance check that the read
// path holds c.mu for zero LTS I/O: with the LTS backend wedged and a
// historical read stuck inside it, appends and tail reads must still
// complete.
func TestTailPathLiveWhileLTSBlocked(t *testing.T) {
	env := newTestEnv(t)
	blocking := newBlockingLTS(env.lts)
	cfg := env.containerConfig(1)
	cfg.LTS = blocking
	cfg.ChunkSizeLimit = 4096
	cfg.FlushSizeBytes = 1
	const total = 16 << 10
	c := seedTieredSegment(t, env, cfg, "s/t/0", total, 1024)

	blocking.armed.Store(true)
	defer blocking.unblock()

	// Wedge a historical read inside LTS.
	histDone := make(chan error, 1)
	go func() {
		_, err := c.Read("s/t/0", 0, total, 0)
		histDone <- err
	}()
	select {
	case <-blocking.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("historical read never reached LTS")
	}

	// Appends and tail reads on the container must not be stuck behind it.
	type step struct {
		name string
		run  func() error
	}
	steps := []step{
		{"append", func() error {
			_, err := c.Append("s/t/0", []byte("tail-data"), "", 0, 1)
			return err
		}},
		{"tail read", func() error {
			info, err := c.GetInfo("s/t/0")
			if err != nil {
				return err
			}
			res, err := c.Read("s/t/0", info.Length, 1024, 0)
			if err != nil {
				return err
			}
			_ = res
			return nil
		}},
		{"cached read", func() error {
			// The append above is cached; reading it must not touch LTS.
			res, err := c.Read("s/t/0", int64(total), 9, 0)
			if err != nil {
				return err
			}
			if string(res.Data) != "tail-data" {
				t.Errorf("cached read got %q", res.Data)
			}
			return nil
		}},
	}
	for _, st := range steps {
		done := make(chan error, 1)
		go func(f func() error) { done <- f() }(st.run)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("%s failed while LTS blocked: %v", st.name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s deadlocked while LTS blocked: read path held c.mu across LTS I/O", st.name)
		}
	}

	// Unblock and confirm the wedged read completes.
	blocking.unblock()
	select {
	case err := <-histDone:
		if err != nil {
			t.Fatalf("historical read failed after unblock: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("historical read never completed after unblock")
	}
}

// TestTruncateRacesInFlightRead wedges a historical read inside LTS,
// truncates past it, then releases the read: it must fail with
// ErrSegmentTruncated, never return pre-truncation bytes.
func TestTruncateRacesInFlightRead(t *testing.T) {
	env := newTestEnv(t)
	blocking := newBlockingLTS(env.lts)
	cfg := env.containerConfig(1)
	cfg.LTS = blocking
	cfg.ChunkSizeLimit = 4096
	cfg.FlushSizeBytes = 1
	cfg.ReadAheadDepth = -1 // isolate the foreground scatter-gather path
	const total = 16 << 10
	c := seedTieredSegment(t, env, cfg, "s/t/0", total, 1024)

	blocking.armed.Store(true)
	histDone := make(chan struct {
		res ReadResult
		err error
	}, 1)
	go func() {
		res, err := c.Read("s/t/0", 0, total, 0)
		histDone <- struct {
			res ReadResult
			err error
		}{res, err}
	}()
	select {
	case <-blocking.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("historical read never reached LTS")
	}

	if err := c.Truncate("s/t/0", 8192); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	// Wait until the truncation is applied.
	deadline := time.Now().Add(5 * time.Second)
	for {
		info, err := c.GetInfo("s/t/0")
		if err != nil {
			t.Fatalf("GetInfo: %v", err)
		}
		if info.StartOffset == 8192 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("truncation never applied")
		}
		time.Sleep(time.Millisecond)
	}

	blocking.unblock()
	select {
	case out := <-histDone:
		if !errors.Is(out.err, ErrSegmentTruncated) {
			t.Fatalf("in-flight read racing truncation: got (%d bytes, %v), want ErrSegmentTruncated", len(out.res.Data), out.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("historical read never completed")
	}
}

// TestCacheEvictionRaceFallsBackToLTS simulates the index/cache race: the
// read index says InCache but the block is gone. The read path must retry
// the lookup and fall through to LTS with the correct bytes.
func TestCacheEvictionRaceFallsBackToLTS(t *testing.T) {
	env := newTestEnv(t)
	cfg := env.containerConfig(1)
	cfg.FlushSizeBytes = 1
	c, err := NewContainer(cfg)
	if err != nil {
		t.Fatalf("NewContainer: %v", err)
	}
	defer c.Close()
	if err := c.CreateSegment("s/t/0"); err != nil {
		t.Fatal(err)
	}
	data := pattern(0, 4096)
	if _, err := c.Append("s/t/0", data, "", 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// Delete the cache block behind the index's back.
	c.mu.Lock()
	s := c.segments["s/t/0"]
	entry, ferr := s.index.Find(0)
	if ferr != nil || entry.Where != readindex.InCache {
		c.mu.Unlock()
		t.Fatalf("expected cached entry, got %+v, %v", entry, ferr)
	}
	if derr := c.cache.Delete(entry.CacheAddr); derr != nil {
		c.mu.Unlock()
		t.Fatalf("cache delete: %v", derr)
	}
	c.mu.Unlock()

	res, err := c.Read("s/t/0", 0, 4096, 0)
	if err != nil {
		t.Fatalf("Read after stale cache entry: %v", err)
	}
	if !bytes.Equal(res.Data, data) {
		t.Fatal("fallback read returned wrong bytes")
	}
}

// TestDeleteInvalidatesReadahead makes sure a deleted segment's prefetched
// ranges do not linger in the prefetcher's budget.
func TestDeleteInvalidatesReadahead(t *testing.T) {
	env := newTestEnv(t)
	cfg := env.containerConfig(1)
	cfg.ChunkSizeLimit = 4096
	cfg.FlushSizeBytes = 1
	cfg.ReadAheadRangeBytes = 4096
	const total = 32 << 10
	c := seedTieredSegment(t, env, cfg, "s/t/0", total, 1024)

	// Engage the prefetcher with a sequential scan.
	for off := int64(0); off < 16<<10; off += 4096 {
		if _, err := c.Read("s/t/0", off, 4096, 0); err != nil {
			t.Fatalf("Read@%d: %v", off, err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for c.ra.BufferedBytes() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if c.ra.BufferedBytes() == 0 {
		t.Fatal("prefetcher never engaged")
	}
	if err := c.DeleteSegment("s/t/0"); err != nil {
		t.Fatalf("DeleteSegment: %v", err)
	}
	deadline = time.Now().Add(2 * time.Second)
	for c.ra.BufferedBytes() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := c.ra.BufferedBytes(); got != 0 {
		t.Fatalf("deleted segment left %d bytes in the readahead budget", got)
	}
}
