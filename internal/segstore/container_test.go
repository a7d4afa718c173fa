package segstore

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestContainerAppendRead(t *testing.T) {
	env := newTestEnv(t)
	c := newTestContainer(t, env, 0)

	const seg = "scope/stream/0.#epoch.0"
	if err := c.CreateSegment(seg); err != nil {
		t.Fatalf("CreateSegment: %v", err)
	}
	var want bytes.Buffer
	for i := 0; i < 50; i++ {
		data := []byte(fmt.Sprintf("event-%03d|", i))
		off, err := c.Append(seg, data, "w1", int64(i), 1)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if off != int64(want.Len()) {
			t.Fatalf("Append %d: offset %d, want %d", i, off, want.Len())
		}
		want.Write(data)
	}
	var got bytes.Buffer
	off := int64(0)
	for got.Len() < want.Len() {
		res, err := c.Read(seg, off, 128, time.Second)
		if err != nil {
			t.Fatalf("Read@%d: %v", off, err)
		}
		if len(res.Data) == 0 {
			t.Fatalf("Read@%d returned no data", off)
		}
		got.Write(res.Data)
		off += int64(len(res.Data))
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("read mismatch: got %d bytes, want %d", got.Len(), want.Len())
	}
}

func TestContainerCreateDuplicate(t *testing.T) {
	env := newTestEnv(t)
	c := newTestContainer(t, env, 0)
	const seg = "s/t/0.#epoch.0"
	if err := c.CreateSegment(seg); err != nil {
		t.Fatalf("CreateSegment: %v", err)
	}
	if err := c.CreateSegment(seg); !errors.Is(err, ErrSegmentExists) {
		t.Fatalf("duplicate create: got %v, want ErrSegmentExists", err)
	}
}

func TestContainerAppendToMissingSegment(t *testing.T) {
	env := newTestEnv(t)
	c := newTestContainer(t, env, 0)
	if _, err := c.Append("nope/x/0.#epoch.0", []byte("x"), "w", 0, 1); !errors.Is(err, ErrSegmentNotFound) {
		t.Fatalf("got %v, want ErrSegmentNotFound", err)
	}
}

func TestContainerSealRejectsAppends(t *testing.T) {
	env := newTestEnv(t)
	c := newTestContainer(t, env, 0)
	const seg = "s/t/1.#epoch.0"
	if err := c.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(seg, []byte("abc"), "w", 0, 1); err != nil {
		t.Fatal(err)
	}
	n, err := c.Seal(seg)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if n != 3 {
		t.Fatalf("sealed length %d, want 3", n)
	}
	if _, err := c.Append(seg, []byte("x"), "w", 1, 1); !errors.Is(err, ErrSegmentSealed) {
		t.Fatalf("append after seal: %v, want ErrSegmentSealed", err)
	}
	// Read at end of sealed segment reports EndOfSegment.
	res, err := c.Read(seg, 3, 16, 0)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !res.EndOfSegment {
		t.Fatal("expected EndOfSegment")
	}
}

func TestContainerWriterDedup(t *testing.T) {
	env := newTestEnv(t)
	c := newTestContainer(t, env, 0)
	const seg = "s/t/2.#epoch.0"
	if err := c.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(seg, []byte("hello"), "writer-A", 5, 5); err != nil {
		t.Fatal(err)
	}
	// Retry with the same event number must be deduplicated (offset -1).
	off, err := c.Append(seg, []byte("hello"), "writer-A", 5, 5)
	if err != nil {
		t.Fatalf("dup append: %v", err)
	}
	if off != -1 {
		t.Fatalf("dup append offset %d, want -1", off)
	}
	info, err := c.GetInfo(seg)
	if err != nil {
		t.Fatal(err)
	}
	if info.Length != 5 {
		t.Fatalf("length %d, want 5 (dup must not extend)", info.Length)
	}
	last, err := c.WriterState(seg, "writer-A")
	if err != nil || last != 5 {
		t.Fatalf("WriterState = %d,%v; want 5,nil", last, err)
	}
	if last, _ := c.WriterState(seg, "unknown"); last != -1 {
		t.Fatalf("unknown writer state %d, want -1", last)
	}
}

// TestContainerAppendChecksPredecessor: an append naming a predecessor the
// writer has not sequenced on the segment fails unapplied, so a batch that
// overtook a lost one cannot move the writer's attribute past it.
func TestContainerAppendChecksPredecessor(t *testing.T) {
	env := newTestEnv(t)
	c := newTestContainer(t, env, 0)
	const seg = "s/t/9.#epoch.0"
	if err := c.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	appendAfter := func(prev, eventNum int64) (int64, error) {
		res := make(chan AppendResult, 1)
		c.AppendAfterFunc(seg, []byte("abcd"), "w", prev, eventNum, 1, func(r AppendResult) { res <- r })
		r := <-res
		return r.Offset, r.Err
	}
	// The second batch (event 9, after 5) arrives before the first.
	if _, err := appendAfter(5, 9); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("append overtaking its predecessor: %v, want ErrOutOfOrder", err)
	}
	if last, _ := c.WriterState(seg, "w"); last != -1 {
		t.Fatalf("WriterState after rejection = %d, want -1", last)
	}
	if off, err := appendAfter(-1, 5); err != nil || off != 0 {
		t.Fatalf("first batch: offset %d, %v", off, err)
	}
	if off, err := appendAfter(5, 9); err != nil || off != 4 {
		t.Fatalf("second batch replayed in order: offset %d, %v", off, err)
	}
	// A replay of an applied batch is still a duplicate, whatever its prev.
	if off, err := appendAfter(-1, 5); err != nil || off != -1 {
		t.Fatalf("replay of the first batch: offset %d, %v; want -1, nil", off, err)
	}
	// Prev 0 skips the check.
	if _, err := c.Append(seg, []byte("abcd"), "w", 20, 1); err != nil {
		t.Fatalf("unchecked append: %v", err)
	}
	if info, _ := c.GetInfo(seg); info.Length != 12 {
		t.Fatalf("length %d, want 12", info.Length)
	}
}

// TestCloseAnswersEveryQueuedAppend: appends enqueued right before Close
// all hear back. The applier used to return as soon as the stop closed,
// while the frame builder could still be submitting the frame those appends
// were admitted to — and no one applied that frame or answered its callers.
func TestCloseAnswersEveryQueuedAppend(t *testing.T) {
	env := newTestEnv(t)
	const seg = "s/t/10.#epoch.0"
	for i := 0; i < 50; i++ {
		c := newTestContainer(t, env, i)
		if err := c.CreateSegment(seg); err != nil {
			t.Fatal(err)
		}
		// A long adaptive delay holds the builder on its open frame, so the
		// stop finds it between admitting the appends and submitting them.
		c.statMu.Lock()
		c.recentLatency = 10 * time.Millisecond
		c.statMu.Unlock()
		var results []<-chan AppendResult
		for j := 0; j < 4; j++ {
			results = append(results, appendAsync(c, seg, []byte("x"), "", 0))
		}
		time.Sleep(time.Millisecond)
		_ = c.Close()
		for j, ch := range results {
			select {
			case <-ch:
			case <-time.After(5 * time.Second):
				t.Fatalf("container %d: append %d never answered after Close", i, j)
			}
		}
	}
}

func TestContainerTailReadLongPoll(t *testing.T) {
	env := newTestEnv(t)
	c := newTestContainer(t, env, 0)
	const seg = "s/t/3.#epoch.0"
	if err := c.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var res ReadResult
	var rerr error
	go func() {
		defer wg.Done()
		res, rerr = c.Read(seg, 0, 64, 2*time.Second)
	}()
	time.Sleep(50 * time.Millisecond)
	if _, err := c.Append(seg, []byte("tail"), "w", 0, 1); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if rerr != nil {
		t.Fatalf("tail read: %v", rerr)
	}
	if string(res.Data) != "tail" {
		t.Fatalf("tail read got %q", res.Data)
	}
}

func TestContainerTruncate(t *testing.T) {
	env := newTestEnv(t)
	c := newTestContainer(t, env, 0)
	const seg = "s/t/4.#epoch.0"
	if err := c.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Append(seg, []byte("0123456789"), "w", int64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Truncate(seg, 50); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if _, err := c.Read(seg, 0, 10, 0); !errors.Is(err, ErrSegmentTruncated) {
		t.Fatalf("read below truncation: %v", err)
	}
	res, err := c.Read(seg, 50, 10, 0)
	if err != nil {
		t.Fatalf("read at truncation: %v", err)
	}
	if string(res.Data) != "0123456789" {
		t.Fatalf("got %q", res.Data)
	}
	info, _ := c.GetInfo(seg)
	if info.StartOffset != 50 {
		t.Fatalf("StartOffset %d, want 50", info.StartOffset)
	}
}

func TestContainerFlushToLTSAndHistoricalRead(t *testing.T) {
	env := newTestEnv(t)
	c := newTestContainer(t, env, 0)
	const seg = "s/t/5.#epoch.0"
	if err := c.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 4096)
	for i := 0; i < 8; i++ {
		if _, err := c.Append(seg, payload, "w", int64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	info, _ := c.GetInfo(seg)
	if info.StorageLength != int64(8*len(payload)) {
		t.Fatalf("StorageLength %d, want %d", info.StorageLength, 8*len(payload))
	}
	if env.lts.ChunkCount() == 0 {
		t.Fatal("no chunks written to LTS")
	}
	// Read back from LTS directly by name via the container read path.
	res, err := c.Read(seg, 100, 200, 0)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(res.Data) == 0 || res.Data[0] != 'x' {
		t.Fatalf("unexpected LTS-backed read: %d bytes", len(res.Data))
	}
}

func TestContainerRecovery(t *testing.T) {
	env := newTestEnv(t)
	cfg := env.containerConfig(7)
	c, err := NewContainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const seg = "s/t/6.#epoch.0"
	if err := c.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for i := 0; i < 20; i++ {
		data := []byte(fmt.Sprintf("rec-%02d;", i))
		if _, err := c.Append(seg, data, "wr", int64(i), 1); err != nil {
			t.Fatal(err)
		}
		want.Write(data)
	}
	c.Crash()

	// New instance recovers from the WAL.
	c2, err := NewContainer(cfg)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer c2.Close()
	info, err := c2.GetInfo(seg)
	if err != nil {
		t.Fatalf("GetInfo after recovery: %v", err)
	}
	if info.Length != int64(want.Len()) {
		t.Fatalf("recovered length %d, want %d", info.Length, want.Len())
	}
	last, err := c2.WriterState(seg, "wr")
	if err != nil || last != 19 {
		t.Fatalf("recovered writer state %d,%v; want 19", last, err)
	}
	var got bytes.Buffer
	off := int64(0)
	for got.Len() < want.Len() {
		res, err := c2.Read(seg, off, 1024, time.Second)
		if err != nil {
			t.Fatalf("Read@%d after recovery: %v", off, err)
		}
		got.Write(res.Data)
		off += int64(len(res.Data))
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("recovered data mismatch")
	}
	// Appends continue at the recovered offset.
	off2, err := c2.Append(seg, []byte("more"), "wr", 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if off2 != int64(want.Len()) {
		t.Fatalf("post-recovery append offset %d, want %d", off2, want.Len())
	}
}

func TestContainerFencing(t *testing.T) {
	env := newTestEnv(t)
	cfg := env.containerConfig(9)
	c1, err := NewContainer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const seg = "s/t/7.#epoch.0"
	if err := c1.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	// A second instance of the same container fences the first.
	c2, err := NewContainer(cfg)
	if err != nil {
		t.Fatalf("second instance: %v", err)
	}
	defer c2.Close()
	if c2.Epoch() <= c1.Epoch() {
		t.Fatalf("epoch did not advance: %d then %d", c1.Epoch(), c2.Epoch())
	}
	// The old instance can no longer write.
	if _, err := c1.Append(seg, []byte("stale"), "w", 0, 1); err == nil {
		t.Fatal("fenced instance accepted an append")
	}
	// The new instance sees the segment and can write.
	if _, err := c2.Append(seg, []byte("fresh"), "w", 0, 1); err != nil {
		t.Fatalf("new instance append: %v", err)
	}
	c1.Crash()
}

func TestContainerDeleteSegment(t *testing.T) {
	env := newTestEnv(t)
	c := newTestContainer(t, env, 0)
	const seg = "s/t/8.#epoch.0"
	if err := c.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(seg, bytes.Repeat([]byte("d"), 2048), "w", 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteSegment(seg); err != nil {
		t.Fatalf("DeleteSegment: %v", err)
	}
	if _, err := c.GetInfo(seg); !errors.Is(err, ErrSegmentNotFound) {
		t.Fatalf("GetInfo after delete: %v", err)
	}
	// Chunk deletion is async; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for env.lts.ChunkCount() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := env.lts.ChunkCount(); n != 0 {
		t.Fatalf("%d chunks remain after delete", n)
	}
}

// TestAppendBehindPendingDeleteLeavesNoBacklog: an append sequenced while a
// delete of its segment is in flight finds the segment gone when it is
// applied. It queues nothing for tiering, so it must add nothing to the
// backlog the throttle weighs, or that budget leaks for good.
func TestAppendBehindPendingDeleteLeavesNoBacklog(t *testing.T) {
	env := newTestEnv(t)
	c := newTestContainer(t, env, 0)
	const seg = "s/t/9.#epoch.0"
	if err := c.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	del := make(chan AppendResult, 1)
	c.enqueue(Operation{Type: OpDelete, Segment: seg}, func(r AppendResult) { del <- r })
	app := appendAsync(c, seg, []byte("behind the delete"), "w", 0)
	if r := <-del; r.Err != nil {
		t.Fatalf("delete: %v", r.Err)
	}
	<-app
	if err := c.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	if n := c.Stats().UnflushedBytes; n != 0 {
		t.Fatalf("un-tiered backlog %d bytes with no segment left", n)
	}
}

// TestOpsBehindPendingDeleteAreNotFound: a delete in flight takes its
// segment away from every operation sequenced after it. An append, a seal,
// a truncate and a merge into or out of the segment fail unapplied with
// ErrSegmentNotFound, instead of being acknowledged and then finding no
// segment to apply to.
func TestOpsBehindPendingDeleteAreNotFound(t *testing.T) {
	env := newTestEnv(t)
	c := newTestContainer(t, env, 0)
	const seg, other = "s/t/9.#epoch.0", "s/t/10.#epoch.0"
	for _, name := range []string{seg, other} {
		if err := c.CreateSegment(name); err != nil {
			t.Fatal(err)
		}
	}
	del := make(chan AppendResult, 1)
	c.enqueue(Operation{Type: OpDelete, Segment: seg}, func(r AppendResult) { del <- r })
	behind := map[string]Operation{
		"append":     appendOp(seg, []byte("behind the delete"), "w", 0, 1, 1),
		"seal":       {Type: OpSeal, Segment: seg},
		"truncate":   {Type: OpTruncate, Segment: seg},
		"merge into": {Type: OpMergeSegment, Segment: seg, Source: other, CondOffset: -1},
		"merge from": {Type: OpMergeSegment, Segment: other, Source: seg, CondOffset: -1},
	}
	results := make(map[string]chan AppendResult)
	for name, op := range behind {
		ch := make(chan AppendResult, 1)
		results[name] = ch
		c.enqueue(op, func(r AppendResult) { ch <- r })
	}
	if r := <-del; r.Err != nil {
		t.Fatalf("delete: %v", r.Err)
	}
	for name, ch := range results {
		if r := <-ch; !errors.Is(r.Err, ErrSegmentNotFound) {
			t.Errorf("%s behind a pending delete: %+v, want ErrSegmentNotFound", name, r)
		}
	}
}

func TestContainerConcurrentAppenders(t *testing.T) {
	env := newTestEnv(t)
	c := newTestContainer(t, env, 0)
	const seg = "s/t/9.#epoch.0"
	if err := c.CreateSegment(seg); err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("w%d", w)
			for i := 0; i < perWriter; i++ {
				if _, err := c.Append(seg, []byte("0123456789"), id, int64(i), 1); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	info, _ := c.GetInfo(seg)
	if want := int64(writers * perWriter * 10); info.Length != want {
		t.Fatalf("length %d, want %d", info.Length, want)
	}
}
