package segstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/blockcache"
	"github.com/pravega-go/pravega/internal/lts"
)

func TestChunkRollover(t *testing.T) {
	env := newTestEnv(t)
	cfg := env.containerConfig(0)
	cfg.ChunkSizeLimit = 4096 // force rollovers
	c, err := NewContainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const seg = "s/t/0.#epoch.0"
	if err := c.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("r"), 1500)
	for i := 0; i < 10; i++ { // 15000 bytes → ≥ 4 chunks
		if _, err := c.Append(seg, payload, "w", int64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	chunks, err := c.ChunkList(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) < 4 {
		t.Fatalf("expected ≥4 chunks after rollover, got %d", len(chunks))
	}
	// Chunks are non-overlapping and contiguous: re-read the whole segment
	// through LTS after evicting the cache view via a restart.
	c.Crash()
	c2, err := NewContainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	var got bytes.Buffer
	off := int64(0)
	total := int64(10 * 1500)
	for off < total {
		res, err := c2.Read(seg, off, 4096, time.Second)
		if err != nil {
			t.Fatalf("Read@%d: %v", off, err)
		}
		got.Write(res.Data)
		off += int64(len(res.Data))
	}
	if int64(got.Len()) != total {
		t.Fatalf("reassembled %d bytes, want %d", got.Len(), total)
	}
}

func TestWALTruncatesAfterFlushAndCheckpoint(t *testing.T) {
	env := newTestEnv(t)
	cfg := env.containerConfig(1)
	cfg.WALRolloverBytes = 2048 // many small ledgers
	c, err := NewContainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const seg = "s/t/1.#epoch.0"
	if err := c.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := c.Append(seg, bytes.Repeat([]byte("w"), 512), "w", int64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Another flush cycle performs the truncation.
	c.flushOnce(true)
	if n := c.log.RetainedLedgers(); n > 3 {
		t.Fatalf("WAL retains %d ledgers after tiering + checkpoint", n)
	}
}

func TestRecoveryAfterWALTruncationUsesCheckpoint(t *testing.T) {
	env := newTestEnv(t)
	cfg := env.containerConfig(2)
	cfg.WALRolloverBytes = 2048
	c, err := NewContainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const seg = "s/t/2.#epoch.0"
	if err := c.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for i := 0; i < 30; i++ {
		data := []byte(fmt.Sprintf("ckpt-%02d|", i))
		if _, err := c.Append(seg, data, "w", int64(i), 1); err != nil {
			t.Fatal(err)
		}
		want.Write(data)
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	c.flushOnce(true) // truncate the WAL
	c.Crash()

	// Recovery must restore state from the checkpoint + chunk metadata
	// even though the early WAL entries are gone.
	c2, err := NewContainer(cfg)
	if err != nil {
		t.Fatalf("recovery after truncation: %v", err)
	}
	defer c2.Close()
	info, err := c2.GetInfo(seg)
	if err != nil || info.Length != int64(want.Len()) {
		t.Fatalf("recovered info = %+v, %v", info, err)
	}
	if info.StorageLength != info.Length {
		t.Fatalf("recovered storage length %d != %d", info.StorageLength, info.Length)
	}
	var got bytes.Buffer
	off := int64(0)
	for got.Len() < want.Len() {
		res, err := c2.Read(seg, off, 1024, time.Second)
		if err != nil {
			t.Fatalf("Read@%d: %v", off, err)
		}
		got.Write(res.Data)
		off += int64(len(res.Data))
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("data mismatch after checkpoint-based recovery")
	}
	// Writer dedup state survives too.
	if last, _ := c2.WriterState(seg, "w"); last != 29 {
		t.Fatalf("recovered writer state %d", last)
	}
}

func TestConditionalAppend(t *testing.T) {
	env := newTestEnv(t)
	c := newTestContainer(t, env, 3)
	const seg = "s/t/3.#epoch.0"
	if err := c.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	off, err := c.AppendConditional(seg, []byte("first"), 0)
	if err != nil || off != 0 {
		t.Fatalf("AppendConditional = %d, %v", off, err)
	}
	if _, err := c.AppendConditional(seg, []byte("stale"), 0); !errors.Is(err, ErrConditionalFailed) {
		t.Fatalf("stale conditional: %v", err)
	}
	off, err = c.AppendConditional(seg, []byte("second"), 5)
	if err != nil || off != 5 {
		t.Fatalf("AppendConditional = %d, %v", off, err)
	}
	info, _ := c.GetInfo(seg)
	if info.Length != 11 {
		t.Fatalf("length %d", info.Length)
	}
}

func TestCachePressureEvictsTieredEntries(t *testing.T) {
	env := newTestEnv(t)
	cfg := env.containerConfig(4)
	cfg.Cache = blockcache.Config{BlockSize: 1024, BlocksPerBuffer: 8, MaxBuffers: 2} // 16 KiB
	cfg.FlushSizeBytes = 1024
	cfg.FlushInterval = 10 * time.Millisecond
	c, err := NewContainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const seg = "s/t/4.#epoch.0"
	if err := c.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("e"), 1024)
	// Write 64 KiB through a 16 KiB cache; tiering keeps pace, eviction
	// reclaims tiered entries, and every byte stays readable.
	for i := 0; i < 64; i++ {
		if _, err := c.Append(seg, payload, "w", int64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if used := c.Stats().CacheUsedBytes; used > 16<<10 {
		t.Fatalf("cache used %d > capacity", used)
	}
	var total int64
	off := int64(0)
	for total < 64<<10 {
		res, err := c.Read(seg, off, 8192, time.Second)
		if err != nil {
			t.Fatalf("Read@%d: %v", off, err)
		}
		total += int64(len(res.Data))
		off += int64(len(res.Data))
	}
}

func TestNoOpLTSKeepsMetadataOnly(t *testing.T) {
	env := newTestEnv(t)
	cfg := env.containerConfig(5)
	cfg.LTS = lts.NewNoOp()
	c, err := NewContainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const seg = "s/t/5.#epoch.0"
	if err := c.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(seg, bytes.Repeat([]byte("n"), 4096), "w", 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	info, _ := c.GetInfo(seg)
	if info.StorageLength != 4096 {
		t.Fatalf("NoOp LTS storage length %d", info.StorageLength)
	}
}

// A size kick reaches the storage writer only once a backlog of
// FlushSizeBytes exists: below it a kicked round would find no segment to
// flush. With the age tick out of the way, small appends leave the writer
// asleep and the append that crosses the threshold gets the segment tiered.
func TestSizeKickWaitsForThreshold(t *testing.T) {
	env := newTestEnv(t)
	cfg := env.containerConfig(6)
	cfg.FlushSizeBytes = 64 << 10
	cfg.FlushInterval = time.Hour
	c, err := NewContainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const seg = "s/t/6.#epoch.0"
	if err := c.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("k"), 1024)
	n := int64(0)
	for ; n < 32; n++ {
		if _, err := c.Append(seg, payload, "w", n, 1); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond) // a kicked round would have run by now
	if r := c.Stats().FlushRounds; r != 0 {
		t.Fatalf("%d tiering rounds at a backlog of 32 KiB, threshold 64 KiB, no tick", r)
	}
	for ; n < 64; n++ {
		if _, err := c.Append(seg, payload, "w", n, 1); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if info, _ := c.GetInfo(seg); info.StorageLength == 64<<10 {
			return
		}
		if time.Now().After(deadline) {
			info, _ := c.GetInfo(seg)
			t.Fatalf("backlog at the threshold was not tiered by a kick: storageLength %d", info.StorageLength)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlushAllRacesAppendsOverLargeBacklog: collectFlushWork takes only the
// queue's slice headers under c.mu and flushSegment copies the bytes after
// unlocking, while appends keep growing the queue and retireCovered keeps
// re-slicing it. Over a 16 MiB backlog plus concurrent appends, the bytes in
// LTS must be exactly the appended bytes in order. Run with -race.
func TestFlushAllRacesAppendsOverLargeBacklog(t *testing.T) {
	env := newTestEnv(t)
	cfg := env.containerConfig(0)
	cfg.FlushInterval = time.Hour // only this test's FlushAll calls tier
	cfg.FlushSizeBytes = 1 << 40
	cfg.MaxUnflushedBytes = 64 << 20
	cfg.ChunkSizeLimit = 3<<20 + 17 // several rollovers, unaligned
	c, err := NewContainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const seg = "s/t/0.#epoch.0"
	if err := c.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	const piece, backlog, during = 64 << 10, 256, 128
	var want bytes.Buffer
	appendOne := func(i int) error {
		p := make([]byte, piece)
		for j := range p {
			p[j] = byte(i*31 + j)
		}
		want.Write(p)
		_, err := c.Append(seg, p, "w", int64(i), 1)
		return err
	}
	for i := 0; i < backlog; i++ { // 16 MiB un-tiered before the first round
		if err := appendOne(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Stats().UnflushedBytes; got < backlog*piece {
		t.Fatalf("backlog is %d bytes before the first flush, want %d", got, backlog*piece)
	}
	appended := make(chan error, 1)
	go func() {
		for i := backlog; i < backlog+during; i++ {
			if err := appendOne(i); err != nil {
				appended <- err
				return
			}
		}
		appended <- nil
	}()
	rounds := 0
	for done := false; !done; rounds++ {
		select {
		case err := <-appended:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		default:
		}
		if err := c.FlushAll(); err != nil && c.LastFlushError() != nil {
			t.Fatal(err) // "still unflushed" alone just means an append won the race
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d flush rounds while appending", rounds)
	chunks, err := c.ChunkList(seg)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, name := range chunks { // in segment order
		n, err := env.lts.Length(name)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, n)
		if r, err := env.lts.Read(name, 0, buf); err != nil || int64(r) != n {
			t.Fatalf("reading %s: %d of %d, %v", name, r, n, err)
		}
		got.Write(buf)
	}
	if len(chunks) < 4 || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("LTS holds %d bytes in %d chunks, appended %d; contents differ or too few chunks", got.Len(), len(chunks), want.Len())
	}
}

// tieredThenIdle builds a container with short checkpoint and flush
// intervals, writes and tiers a backlog across several WAL ledgers, and
// returns once the checkpoint loop has written the checkpoint that covers
// the tiering, plus a few idle ticks.
func tieredThenIdle(t *testing.T, id int) (*Container, time.Duration) {
	t.Helper()
	env := newTestEnv(t)
	cfg := env.containerConfig(id)
	cfg.WALRolloverBytes = 2048
	cfg.CheckpointInterval = 30 * time.Millisecond
	cfg.FlushInterval = 10 * time.Millisecond
	c := newContainerWithConfig(t, cfg)
	const seg = "s/idle/0.#epoch.0"
	if err := c.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := c.Append(seg, bytes.Repeat([]byte("i"), 512), "w", int64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Tiering changed chunk metadata without a WAL frame: the loop owes
	// one checkpoint for it.
	base := c.Stats().CheckpointsTaken
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().CheckpointsTaken == base {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint after tiering")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(3 * cfg.CheckpointInterval)
	return c, cfg.CheckpointInterval
}

func newContainerWithConfig(t *testing.T, cfg ContainerConfig) *Container {
	t.Helper()
	c, err := NewContainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestIdleContainerWritesNoCheckpoints: once its last change is
// checkpointed, a container with nothing applied and nothing tiered writes
// nothing to its WAL, however many checkpoint ticks pass.
func TestIdleContainerWritesNoCheckpoints(t *testing.T) {
	c, every := tieredThenIdle(t, 3)
	before := c.Stats().FramesWritten
	time.Sleep(5 * every)
	if n := c.Stats().FramesWritten - before; n != 0 {
		t.Fatalf("idle container wrote %d WAL frames over 5 checkpoint intervals, want 0", n)
	}
}

// TestWALTruncatesAfterIdleCheckpoint: the one checkpoint the loop writes
// after tiering is enough for the storage writer to release the tiered
// ledgers, with no explicit Checkpoint call.
func TestWALTruncatesAfterIdleCheckpoint(t *testing.T) {
	c, _ := tieredThenIdle(t, 4)
	deadline := time.Now().Add(10 * time.Second)
	for c.log.RetainedLedgers() > 3 {
		if time.Now().After(deadline) {
			t.Fatalf("WAL retains %d ledgers after tiering and an idle checkpoint", c.log.RetainedLedgers())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// createHook runs after on each successful chunk create.
type createHook struct {
	lts.ChunkStorage
	after func(name string)
}

func (h *createHook) Create(name string) error {
	err := h.ChunkStorage.Create(name)
	if err == nil {
		h.after(name)
	}
	return err
}

// TestChunkCreatedForDeletedSegmentIsRemoved: the storage writer records a
// chunk only once its create returns, so a segment deleted while the create
// runs never lists the chunk and its delete cannot remove it; the writer
// does.
func TestChunkCreatedForDeletedSegmentIsRemoved(t *testing.T) {
	env := newTestEnv(t)
	cfg := env.containerConfig(0)
	const seg = "s/t/0"
	deleted := make(chan *Container, 1)
	cfg.LTS = &createHook{ChunkStorage: env.lts, after: func(string) {
		if err := (<-deleted).DeleteSegment(seg); err != nil {
			t.Errorf("delete during chunk create: %v", err)
		}
	}}
	c := newContainerWithConfig(t, cfg)
	if err := c.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(seg, []byte("doomed"), "w", 1, 1); err != nil {
		t.Fatal(err)
	}
	deleted <- c
	if err := c.FlushAll(); err != nil {
		t.Fatalf("flush of a segment deleted mid-create: %v", err)
	}
	if n := env.lts.ChunkCount(); n != 0 {
		t.Fatalf("%d chunks left in LTS for a deleted segment", n)
	}
}

// TestRecoveryRefusesChunkPastSegmentLength: adoption trusts a chunk under
// the next deterministic name only up to the segment's length; a chunk
// holding more is not the segment's bytes, and recovery fails rather than
// serve it.
func TestRecoveryRefusesChunkPastSegmentLength(t *testing.T) {
	env := newTestEnv(t)
	cfg := env.containerConfig(0)
	c, err := NewContainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const seg = "s/t/0"
	if err := c.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(seg, make([]byte, 100), "w", 1, 1); err != nil {
		t.Fatal(err)
	}
	c.Crash()
	if err := env.lts.Create(seg + "/chunk-0"); err != nil {
		t.Fatal(err)
	}
	if err := env.lts.Write(seg+"/chunk-0", 0, make([]byte, 200)); err != nil {
		t.Fatal(err)
	}
	if c2, err := NewContainer(cfg); err == nil {
		_ = c2.Close()
		t.Fatal("recovery adopted a chunk longer than its segment")
	}
}
