package faultinject

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/lts"
	"github.com/pravega-go/pravega/internal/obs"
	"github.com/pravega-go/pravega/internal/segstore"
)

// newQuietRig builds the crash rig with background tiering effectively
// disabled (huge flush size, hour-long intervals) so tests control exactly
// when flushes and checkpoints happen. Chunk size is 1 KiB to force
// multi-chunk flush rounds from small payloads; walRolloverBytes 0 keeps the
// default ledger size.
func newQuietRig(t *testing.T, store lts.ChunkStorage, hooks *segstore.Hooks, walRolloverBytes int64) (*crashRig, *segstore.Container) {
	t.Helper()
	rig, err := newCrashRig(store, segstore.ContainerConfig{
		FlushSizeBytes:     1 << 30,
		FlushInterval:      time.Hour,
		ChunkSizeLimit:     1024,
		CheckpointInterval: time.Hour,
		MaxUnflushedBytes:  1 << 30,
		WALRolloverBytes:   walRolloverBytes,
		Hooks:              hooks,
	})
	if err != nil {
		t.Fatalf("crash rig: %v", err)
	}
	t.Cleanup(rig.Close)
	c, err := rig.st.ContainerByID(0)
	if err != nil {
		t.Fatalf("container: %v", err)
	}
	return rig, c
}

func mustAppend(t *testing.T, c *segstore.Container, seg string, data []byte, writer string, num int64) {
	t.Helper()
	if _, err := c.Append(seg, data, writer, num, 1); err != nil {
		t.Fatalf("append %s event %d: %v", seg, num, err)
	}
}

func readBack(t *testing.T, c *segstore.Container, seg string, from, to int64) []byte {
	t.Helper()
	var out []byte
	for off := from; off < to; {
		res, err := c.Read(seg, off, 64<<10, 0)
		if err != nil {
			t.Fatalf("read %s@%d: %v", seg, off, err)
		}
		if len(res.Data) == 0 {
			t.Fatalf("read %s@%d: stalled before %d", seg, off, to)
		}
		out = append(out, res.Data...)
		off += int64(len(res.Data))
	}
	return out
}

func assertLayout(t *testing.T, c *segstore.Container, mem *lts.Memory, seg string, wantLen int64) {
	t.Helper()
	if err := CheckContainer(c, mem); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	d, ok := c.DebugState()[seg]
	if !ok {
		t.Fatalf("segment %s missing from debug state", seg)
	}
	var sum int64
	for _, ch := range d.Chunks {
		if ch.StartOffset != sum {
			t.Fatalf("chunk %s starts at %d, want %d (overlap or gap)", ch.Name, ch.StartOffset, sum)
		}
		sum += ch.Length
	}
	if sum != d.StorageLength {
		t.Fatalf("chunks cover %d bytes, storageLength is %d", sum, d.StorageLength)
	}
	if d.StorageLength != wantLen {
		t.Fatalf("storageLength %d, want %d", d.StorageLength, wantLen)
	}
}

// TestMidFlushFailureNoDuplication is the acceptance regression: an LTS
// write failure in the middle of a multi-chunk flush round, followed by a
// retry, must not duplicate the bytes the round had already tiered. Before
// incremental retirement the retry re-flushed the whole batch from the
// queue head, double-counting the committed prefix in storageLength and
// corrupting the chunk layout.
func TestMidFlushFailureNoDuplication(t *testing.T) {
	mem := lts.NewMemory()
	flts := NewFaultyLTS(mem)
	_, c := newQuietRig(t, flts, nil, 0)

	const seg = "scope/s/dup"
	if err := c.CreateSegment(seg); err != nil {
		t.Fatalf("create: %v", err)
	}
	payload := make([]byte, 5000) // 5 chunks at the 1 KiB limit
	for i := range payload {
		payload[i] = byte(i)
	}
	mustAppend(t, c, seg, payload, "w", 1)

	// Second chunk write of the round fails after the first committed.
	flts.AddRule(LTSRule{Op: LTSWrite, Nth: 2, Count: 1})

	err := c.FlushAll()
	if err == nil {
		t.Fatal("flush with injected LTS failure unexpectedly succeeded")
	}
	if !errors.Is(err, lts.ErrUnavailable) {
		t.Fatalf("flush error should wrap the LTS cause, got: %v", err)
	}
	// Mid-failure the layout must already be consistent: the committed
	// first chunk retired from the queue, watermark == chunk cover.
	if cerr := CheckContainer(c, mem); cerr != nil {
		t.Fatalf("invariants after failed round: %v", cerr)
	}

	// The retry must tier the remainder exactly once.
	if err := c.FlushAll(); err != nil {
		t.Fatalf("retry flush: %v", err)
	}
	assertLayout(t, c, mem, seg, int64(len(payload)))
	if got := readBack(t, c, seg, 0, int64(len(payload))); !bytes.Equal(got, payload) {
		t.Fatal("read-back differs from acked payload after mid-flush failure + retry")
	}
	if flts.Injected() == 0 {
		t.Fatal("fault rule never fired; test exercised nothing")
	}
}

// TestPartialWriteReconciled: LTS persists a prefix of a chunk write and
// then reports failure. The flusher must probe the chunk's actual length,
// adopt the persisted prefix, and resume after it — no re-write of the
// prefix (deterministic chunk content makes adoption safe), no gap.
func TestPartialWriteReconciled(t *testing.T) {
	mem := lts.NewMemory()
	flts := NewFaultyLTS(mem)
	_, c := newQuietRig(t, flts, nil, 0)

	const seg = "scope/s/partial"
	if err := c.CreateSegment(seg); err != nil {
		t.Fatalf("create: %v", err)
	}
	payload := make([]byte, 3000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	mustAppend(t, c, seg, payload, "w", 1)

	flts.AddRule(LTSRule{Op: LTSWrite, Nth: 2, Count: 1, PartialBytes: 300})

	if err := c.FlushAll(); err == nil {
		t.Fatal("flush with injected partial write unexpectedly succeeded")
	}
	// The 300 persisted bytes must be committed, not forgotten: the second
	// chunk records exactly the prefix LTS kept.
	d := c.DebugState()[seg]
	if len(d.Chunks) < 2 || d.Chunks[1].Length != 300 {
		t.Fatalf("partial write not reconciled: chunks %+v", d.Chunks)
	}
	if cerr := CheckContainer(c, mem); cerr != nil {
		t.Fatalf("invariants after partial write: %v", cerr)
	}

	if err := c.FlushAll(); err != nil {
		t.Fatalf("retry flush: %v", err)
	}
	assertLayout(t, c, mem, seg, int64(len(payload)))
	if got := readBack(t, c, seg, 0, int64(len(payload))); !bytes.Equal(got, payload) {
		t.Fatal("read-back differs after partial-write reconciliation")
	}
}

// TestPartialWriteSpanningParts: the storage writer hands LTS its queued
// appends as parts, and a write that dies mid-object persists exactly the
// prefix of their concatenation it reached, here one that ends inside the
// second of three appends. The flusher adopts it and the retry writes the
// rest after it.
func TestPartialWriteSpanningParts(t *testing.T) {
	mem := lts.NewMemory()
	flts := NewFaultyLTS(mem)
	_, c := newQuietRig(t, flts, nil, 0)

	const seg = "scope/s/parts"
	if err := c.CreateSegment(seg); err != nil {
		t.Fatalf("create: %v", err)
	}
	var all []byte
	for i := 0; i < 3; i++ {
		payload := bytes.Repeat([]byte{byte('a' + i)}, 300)
		mustAppend(t, c, seg, payload, "w", int64(i+1))
		all = append(all, payload...)
	}

	const prefix = 450 // 300 bytes of the first append, 150 of the second
	flts.AddRule(LTSRule{Op: LTSWrite, Nth: 1, Count: 1, PartialBytes: prefix})
	if err := c.FlushAll(); err == nil {
		t.Fatal("flush with injected partial write unexpectedly succeeded")
	}
	d := c.DebugState()[seg]
	if len(d.Chunks) != 1 || d.Chunks[0].Length != prefix {
		t.Fatalf("partial write not reconciled: chunks %+v", d.Chunks)
	}
	got := make([]byte, 2*prefix)
	n, err := mem.Read(d.Chunks[0].Name, 0, got)
	if err != nil || !bytes.Equal(got[:n], all[:prefix]) {
		t.Fatalf("chunk holds %q (%v), want the %d-byte prefix of the appends", got[:n], err, prefix)
	}

	if err := c.FlushAll(); err != nil {
		t.Fatalf("retry flush: %v", err)
	}
	assertLayout(t, c, mem, seg, int64(len(all)))
	if got := readBack(t, c, seg, 0, int64(len(all))); !bytes.Equal(got, all) {
		t.Fatal("read-back differs after a partial write across parts")
	}
}

// TestOrphanChunkAdoption: crash after the LTS chunk object is created but
// before any metadata references it. Recovery must adopt the orphan under
// its deterministic name instead of colliding with ErrChunkExists forever.
func TestOrphanChunkAdoption(t *testing.T) {
	mem := lts.NewMemory()
	inj := NewInjector()
	rig, c := newQuietRig(t, mem, inj.Hooks(), 0)

	const seg = "scope/s/orphan"
	if err := c.CreateSegment(seg); err != nil {
		t.Fatalf("create: %v", err)
	}
	payload := make([]byte, 700)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	mustAppend(t, c, seg, payload, "w", 1)

	plan := &CrashPlan{Point: PointAfterChunkCreate, Nth: 1}
	inj.Arm(plan)
	if err := c.FlushAll(); err == nil {
		t.Fatal("flush across scripted crash unexpectedly succeeded")
	}
	if !plan.Fired() {
		t.Fatal("crash plan at after-chunk-create never fired")
	}
	if mem.ChunkCount() != 1 {
		t.Fatalf("expected exactly the orphan chunk in LTS, have %d", mem.ChunkCount())
	}

	if err := rig.crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	if err := rig.restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	c2, err := rig.st.ContainerByID(0)
	if err != nil {
		t.Fatalf("container after restart: %v", err)
	}
	if err := c2.FlushAll(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	if mem.ChunkCount() != 1 {
		t.Fatalf("orphan not adopted: %d chunks in LTS, want 1", mem.ChunkCount())
	}
	assertLayout(t, c2, mem, seg, int64(len(payload)))
	if got := readBack(t, c2, seg, 0, int64(len(payload))); !bytes.Equal(got, payload) {
		t.Fatal("read-back differs after orphan-chunk adoption")
	}
}

// TestRecreatedSegmentIgnoresDeletedChunks: a segment deleted while LTS
// fails its chunk deletes leaves its chunk behind, and a segment re-created
// under the same name must not adopt it. Chunk names carry the segment's
// incarnation (the WAL address of its create), so the new segment's writer
// creates a chunk of its own, and every byte LTS holds for it is its own.
// Under names without the incarnation the writer found chunk-0, adopted the
// old 500 bytes and wrote the new ones after them, which the block cache hid
// until eviction.
func TestRecreatedSegmentIgnoresDeletedChunks(t *testing.T) {
	mem := lts.NewMemory()
	flts := NewFaultyLTS(mem)
	_, c := newQuietRig(t, flts, nil, 0)
	failures := obs.Default().Counter("pravega_lts_chunk_delete_failures_total", "")
	before := failures.Value()

	const seg = "scope/s/recreated"
	if err := c.CreateSegment(seg); err != nil {
		t.Fatalf("create: %v", err)
	}
	mustAppend(t, c, seg, bytes.Repeat([]byte("o"), 500), "w", 1)
	if err := c.FlushAll(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	flts.AddRule(LTSRule{Op: LTSDelete, Count: -1})
	injected := flts.Injected()
	if err := c.DeleteSegment(seg); err != nil {
		t.Fatalf("delete: %v", err)
	}
	// Chunks are deleted asynchronously: wait for the failed attempt.
	for deadline := time.Now().Add(5 * time.Second); flts.Injected() == injected; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the deleted segment's chunk delete never ran")
		}
	}
	if mem.ChunkCount() != 1 {
		t.Fatalf("%d chunks in LTS, want the deleted segment's one left behind", mem.ChunkCount())
	}

	if err := c.CreateSegment(seg); err != nil {
		t.Fatalf("re-create: %v", err)
	}
	want := bytes.Repeat([]byte("n"), 800)
	mustAppend(t, c, seg, want, "w", 1)
	if err := c.FlushAll(); err != nil {
		t.Fatalf("flush after re-create: %v", err)
	}
	d := c.DebugState()[seg]
	var got []byte
	for _, ch := range d.Chunks {
		buf := make([]byte, ch.Length)
		if _, err := mem.Read(ch.Name, 0, buf); err != nil {
			t.Fatalf("read chunk %s: %v", ch.Name, err)
		}
		got = append(got, buf...)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("LTS holds %d bytes for the re-created segment, %d of them not %q; want %d",
			len(got), len(got)-bytes.Count(got, []byte("n")), "n", len(want))
	}
	if n := failures.Value() - before; n < 1 {
		t.Fatalf("pravega_lts_chunk_delete_failures_total rose by %d, want the failed delete counted", n)
	}
}

// TestCheckpointDoesNotDropUntieredTail: a checkpoint taken while acked
// data is still un-tiered must not let recovery lose that data — replay has
// to restore the tail even though the checkpoint's storageLength is behind.
func TestCheckpointDoesNotDropUntieredTail(t *testing.T) {
	h := NewHarness(t, HarnessConfig{Seed: 7, Segments: 1})
	defer h.Close()
	seg := h.segs[0]
	m := h.model[seg]

	// Keep LTS down so nothing tiers, then checkpoint with a backlog.
	h.flts.AddRule(LTSRule{Op: LTSWrite, Count: -1})
	h.flts.AddRule(LTSRule{Op: LTSCreate, Count: -1})
	for i := 0; i < 10; i++ {
		h.stepAppend(seg, m)
	}
	h.mustRetry("checkpoint", func() error { return h.container().Checkpoint() })

	h.recoverAndVerify("scripted crash with un-tiered checkpointed backlog")
	h.flts.Reset()
	h.drain()
}

// tierBehindCheckpoint leaves seg with a checkpoint that trails LTS and a
// WAL that no longer holds the bytes in between: it appends [0,1000) and
// tiers it, appends [1000,1500), checkpoints twice (both snapshots predate
// the next flush), tiers [1000,1500) — which releases its WAL ledger — and
// appends the acked tail [1500,1900) without tiering it. It returns all
// 1900 bytes.
func tierBehindCheckpoint(t *testing.T, c *segstore.Container, seg string) []byte {
	t.Helper()
	if err := c.CreateSegment(seg); err != nil {
		t.Fatalf("create: %v", err)
	}
	payload := make([]byte, 1900)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	a, b, tail := payload[:1000], payload[1000:1500], payload[1500:]

	mustAppend(t, c, seg, a, "w", 1)
	if err := c.FlushAll(); err != nil {
		t.Fatalf("flush a: %v", err)
	}
	mustAppend(t, c, seg, b, "w", 2)
	d := c.DebugState()[seg]
	if !d.HasUnflushed {
		t.Fatal("expected b un-tiered before the checkpoint")
	}
	bSeq := d.LowestUnflushedAddr.LedgerSeq
	// Two checkpoints: WAL truncation stops at the latest checkpoint's
	// coverage watermark (the last frame applied when its snapshot was
	// captured), so releasing b's ledger takes a checkpoint whose watermark
	// lies above b's frame — the first checkpoint's own frame provides it.
	// Both snapshots predate b's flush (FlushInterval is an hour), so
	// recovery must still adopt b's bytes from the grown chunk.
	if err := c.Checkpoint(); err != nil {
		t.Fatalf("checkpoint 1: %v", err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatalf("checkpoint 2: %v", err)
	}
	if err := c.FlushAll(); err != nil {
		t.Fatalf("flush b: %v", err)
	}
	if tb := c.WALTruncatedBefore(); tb <= bSeq {
		t.Fatalf("WAL truncation did not release b's ledger: truncated before %d, b at %d", tb, bSeq)
	}
	mustAppend(t, c, seg, tail, "w", 3)
	return payload
}

// TestAdoptionAfterWALTruncation: recovery adoption must retire queued
// bytes by offset, not by adopted count. After tierBehindCheckpoint and a
// crash, replay restores the stale checkpoint watermark and re-queues only
// the tail (b's entries are gone from the WAL); adoption heals the watermark
// from the chunks. A count-based retire here ate the head of the
// still-unflushed tail — acked data loss.
func TestAdoptionAfterWALTruncation(t *testing.T) {
	mem := lts.NewMemory()
	// A ledger per frame: truncation is fine-grained.
	rig, c := newQuietRig(t, mem, nil, 64)
	const seg = "scope/s/trunc"
	payload := tierBehindCheckpoint(t, c, seg)

	if err := rig.crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	if err := rig.restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	c2, err := rig.st.ContainerByID(0)
	if err != nil {
		t.Fatalf("container after restart: %v", err)
	}
	if err := CheckContainer(c2, mem); err != nil {
		t.Fatalf("invariants after recovery: %v", err)
	}
	d := c2.DebugState()[seg]
	if !d.HasUnflushed || d.UnflushedStart != 1500 {
		t.Fatalf("acked tail lost by adoption retire: hasUnflushed=%v start=%d, want queue at 1500",
			d.HasUnflushed, d.UnflushedStart)
	}
	if err := c2.FlushAll(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	assertLayout(t, c2, mem, seg, int64(len(payload)))
	if got := readBack(t, c2, seg, 0, int64(len(payload))); !bytes.Equal(got, payload) {
		t.Fatal("read-back differs after recovery")
	}
}

// TestRecoveryAdoptsOnlyOnceLTSAnswers: the same schedule, with LTS failing
// the first length probe of recovery. Only LTS knows that [1000,1500) is
// tiered (the checkpoint predates it, the WAL released it), so a container
// that started anyway could neither read those acked bytes nor tier the
// tail after them. Recovery must fail instead, and the next attempt, with
// LTS answering, must serve and tier everything.
func TestRecoveryAdoptsOnlyOnceLTSAnswers(t *testing.T) {
	mem := lts.NewMemory()
	flts := NewFaultyLTS(mem)
	rig, c := newQuietRig(t, flts, nil, 64)
	const seg = "scope/s/trunc"
	payload := tierBehindCheckpoint(t, c, seg)

	flts.AddRule(LTSRule{Op: LTSLength, Nth: 1, Count: 1})
	if err := rig.crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	if err := rig.restart(); !errors.Is(err, lts.ErrUnavailable) {
		t.Fatalf("restart with LTS failing its length probe = %v, want it to fail with the LTS error", err)
	}
	if err := rig.restart(); err != nil {
		t.Fatalf("restart once LTS answers: %v", err)
	}
	c2, err := rig.st.ContainerByID(0)
	if err != nil {
		t.Fatalf("container after restart: %v", err)
	}
	if got := readBack(t, c2, seg, 0, int64(len(payload))); !bytes.Equal(got, payload) {
		t.Fatal("read-back differs after recovery")
	}
	if err := c2.FlushAll(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	if err := CheckContainer(c2, mem); err != nil {
		t.Fatalf("invariants after recovery: %v", err)
	}
}

// TestCrashAtEachPoint drives the workload into every scripted crash point,
// restarts, and asserts full recovery equivalence plus the chunk/WAL
// invariants.
func TestCrashAtEachPoint(t *testing.T) {
	for _, pt := range AllPoints {
		t.Run(string(pt), func(t *testing.T) {
			h := NewHarness(t, HarnessConfig{Seed: 42, Segments: 2})
			defer h.Close()
			for i := 0; i < 6; i++ {
				seg := h.segs[i%len(h.segs)]
				h.stepAppend(seg, h.model[seg])
			}
			isMerge := false
			for _, mp := range MergePoints {
				if mp == pt {
					isMerge = true
				}
			}
			plan := &CrashPlan{Point: pt, Nth: 1}
			h.inj.Arm(plan)
			deadline := time.Now().Add(20 * time.Second)
			for !plan.Fired() {
				if time.Now().After(deadline) {
					t.Fatalf("crash point %s never fired", pt)
				}
				seg := h.segs[0]
				if isMerge {
					// Merge points only arise on the transaction commit path.
					h.stepMergeTxn(seg, h.model[seg])
					continue
				}
				h.stepAppend(seg, h.model[seg])
				h.mustRetry("flush", func() error { return h.container().FlushAll() })
				h.mustRetry("checkpoint", func() error { return h.container().Checkpoint() })
			}
			h.recoverAndVerify("scripted crash at " + string(pt))
			h.drain()
		})
	}
}

// TestBookieFaultsWithinQuorum: failed adds and dropped acks confined to one
// bookie stay inside the 3/3/2 ack-quorum tolerance — appends succeed with
// no recovery needed.
func TestBookieFaultsWithinQuorum(t *testing.T) {
	h := NewHarness(t, HarnessConfig{Seed: 11, Segments: 1})
	defer h.Close()
	seg := h.segs[0]
	m := h.model[seg]

	h.bookies[0].AddRule(BookieRule{Op: BookieAdd, Count: 4})
	for i := 0; i < 5; i++ {
		h.stepAppend(seg, m)
	}
	h.bookies[0].Reset()
	h.bookies[1].AddRule(BookieRule{Op: BookieAdd, Count: 4, DropAck: true})
	for i := 0; i < 5; i++ {
		h.stepAppend(seg, m)
	}
	if h.Crashes != 0 {
		t.Fatalf("faults within quorum tolerance forced %d recoveries, want 0", h.Crashes)
	}
	if h.bookies[0].Injected() == 0 || h.bookies[1].Injected() == 0 {
		t.Fatal("bookie fault rules never fired")
	}
	h.verify("bookie faults within quorum")
	h.drain()
}

// TestBookieQuorumLoss: simultaneous add failures on two bookies exceed
// WriteQuorum−AckQuorum, so the append fails; the client-side retry with the
// same writerID/eventNum must land the event exactly once.
func TestBookieQuorumLoss(t *testing.T) {
	h := NewHarness(t, HarnessConfig{Seed: 13, Segments: 1})
	defer h.Close()
	seg := h.segs[0]
	m := h.model[seg]

	h.stepAppend(seg, m) // healthy baseline
	// Overlapping failure windows on two bookies guarantee some entry sees
	// two failed adds — beyond WriteQuorum−AckQuorum.
	h.bookies[0].AddRule(BookieRule{Op: BookieAdd, Count: 6})
	h.bookies[1].AddRule(BookieRule{Op: BookieAdd, Count: 6})
	h.stepAppend(seg, m) // fails, recovers, retries
	if h.Crashes == 0 {
		t.Fatal("quorum loss did not force a recovery")
	}
	h.verify("after quorum loss")
	h.drain()
}

// TestFenceFaultDuringRecovery: ledger recovery itself hits an injected
// fence failure; once the fault clears, restart succeeds and no acked data
// is lost.
func TestFenceFaultDuringRecovery(t *testing.T) {
	h := NewHarness(t, HarnessConfig{Seed: 17, Segments: 1})
	defer h.Close()
	seg := h.segs[0]
	m := h.model[seg]
	for i := 0; i < 5; i++ {
		h.stepAppend(seg, m)
	}
	h.bookies[0].AddRule(BookieRule{Op: BookieFence, Count: 2})
	h.recoverAndVerify("crash with fence fault armed")
	if h.Recovered == 0 {
		t.Fatal("container never recovered")
	}
	h.drain()
}

// TestFlushErrorSurfaced: while LTS is persistently down, FlushAll and
// LastFlushError must surface the underlying cause instead of failing
// silently (role.Cluster.WaitForTiering's share of this is checked in
// role's TestLTSOutageThrottlesAndRecovers).
func TestFlushErrorSurfaced(t *testing.T) {
	h := NewHarness(t, HarnessConfig{Seed: 19, Segments: 1})
	defer h.Close()
	seg := h.segs[0]
	m := h.model[seg]

	h.flts.AddRule(LTSRule{Op: LTSWrite, Count: -1})
	h.flts.AddRule(LTSRule{Op: LTSCreate, Count: -1})
	for i := 0; i < 6; i++ {
		h.stepAppend(seg, m)
	}

	if err := h.container().FlushAll(); err == nil {
		t.Fatal("FlushAll against a down LTS returned nil")
	} else if !errors.Is(err, lts.ErrUnavailable) {
		t.Fatalf("FlushAll error does not wrap the LTS cause: %v", err)
	}
	if h.container().LastFlushError() == nil {
		t.Fatal("LastFlushError is nil while tiering is failing")
	}

	h.flts.Reset()
	h.drain()
	if err := h.container().LastFlushError(); err != nil {
		t.Fatalf("LastFlushError not cleared after clean round: %v", err)
	}
	if err := h.container().LastTruncateError(); err != nil {
		t.Fatalf("LastTruncateError after drain: %v", err)
	}
}

// TestLatencyFaultIsHarmless: latency-only rules delay but never fail;
// everything drains and verifies.
func TestLatencyFaultIsHarmless(t *testing.T) {
	h := NewHarness(t, HarnessConfig{Seed: 23, Segments: 1})
	defer h.Close()
	seg := h.segs[0]
	m := h.model[seg]
	h.flts.AddRule(LTSRule{Op: LTSWrite, Count: 5, Delay: 3 * time.Millisecond})
	for i := 0; i < 8; i++ {
		h.stepAppend(seg, m)
	}
	h.verify("latency faults")
	h.drain()
	if h.Crashes != 0 {
		t.Fatalf("latency-only faults forced %d recoveries, want 0", h.Crashes)
	}
}

func ExampleCrashPlan() {
	inj := NewInjector()
	inj.Arm(&CrashPlan{Point: PointBeforeFlushRetire, Nth: 2})
	fmt.Println(inj.Armed().Fired())
	// Output: false
}
