package pravega

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/client"
	"github.com/pravega-go/pravega/internal/keyspace"
	"github.com/pravega-go/pravega/internal/segstore"
)

// watchedReads wraps a reader group's transport: it counts ReadCtx calls
// per segment and parks the ones on idle segments until their ctx ends.
type watchedReads struct {
	client.DataTransport
	idle map[string]bool

	mu       sync.Mutex
	calls    map[string]int
	inflight int
}

func watchReads(rg *ReaderGroup, idle ...string) *watchedReads {
	w := newWatchedReads(rg.conn, idle...)
	rg.conn = w
	return w
}

func newWatchedReads(conn client.DataTransport, idle ...string) *watchedReads {
	w := &watchedReads{DataTransport: conn, idle: make(map[string]bool), calls: make(map[string]int)}
	for _, qn := range idle {
		w.idle[qn] = true
	}
	return w
}

// watchedGroup opens a reader group whose every read, the synchronizer's
// included, goes through a watchedReads.
func watchedGroup(t *testing.T, sys *System, name, scope, stream string, idle ...string) (*ReaderGroup, *watchedReads) {
	t.Helper()
	orig := sys.newData
	var w *watchedReads
	sys.newData = func() client.DataTransport {
		w = newWatchedReads(orig(), idle...)
		return w
	}
	rg, err := sys.NewReaderGroup(name, scope, stream)
	sys.newData = orig
	if err != nil {
		t.Fatal(err)
	}
	return rg, w
}

func (w *watchedReads) ReadCtx(ctx context.Context, name string, offset int64, maxBytes int, wait time.Duration) (segstore.ReadResult, error) {
	w.mu.Lock()
	w.calls[name]++
	w.inflight++
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		w.inflight--
		w.mu.Unlock()
	}()
	if w.idle[name] {
		<-ctx.Done()
		return segstore.ReadResult{}, ctx.Err()
	}
	return w.DataTransport.ReadCtx(ctx, name, offset, maxBytes, wait)
}

// snapshot returns the total ReadCtx calls so far, per segment, and how many
// are still running.
func (w *watchedReads) snapshot() (map[string]int, int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	calls := make(map[string]int, len(w.calls))
	for qn, n := range w.calls {
		calls[qn] = n
	}
	return calls, w.inflight
}

// segmentsByKey maps each of the stream's active segments to a routing key
// that lands on it.
func segmentsByKey(t *testing.T, sys *System, scope, stream string) map[string]string {
	t.Helper()
	segs, err := sys.control.GetActiveSegments(scope, stream)
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]string, len(segs))
	for i := 0; len(keys) < len(segs); i++ {
		key := fmt.Sprintf("k%d", i)
		for _, s := range segs {
			if _, done := keys[s.ID.QualifiedName()]; !done && s.KeyRange.Contains(keyspace.HashKey(key)) {
				keys[s.ID.QualifiedName()] = key
			}
		}
	}
	return keys
}

func ownedSegments(r *Reader) []*ownedSegment {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*ownedSegment, 0, len(r.owned))
	for _, seg := range r.owned {
		out = append(out, seg)
	}
	return out
}

// TestReaderReadsOwnedSegmentsInParallel owns all four segments of a stream
// whose reads on three never return: the event written to the fourth must
// still arrive, because each segment is read on its own.
func TestReaderReadsOwnedSegmentsInParallel(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "par", "s", 4)
	rg, err := sys.NewReaderGroup("rg-par", "par", "s")
	if err != nil {
		t.Fatal(err)
	}
	var live string
	var idle []string
	for qn, key := range segmentsByKey(t, sys, "par", "s") {
		if live == "" {
			live = key
			continue
		}
		idle = append(idle, qn)
	}
	watchReads(rg, idle...)
	r, err := rg.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	type result struct {
		ev  Event
		err error
	}
	got := make(chan result, 1)
	go func() {
		ev, err := r.ReadNextEvent(2 * time.Second)
		got <- result{ev, err}
	}()
	// Written once the reader waits, so it has to be noticed, not found.
	time.Sleep(100 * time.Millisecond)
	w, err := sys.NewWriter(WriterConfig{Scope: "par", Stream: "s"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.WriteEvent(live, []byte("live")).Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if res := <-got; res.err != nil || string(res.ev.Data) != "live" {
		t.Fatalf("ReadNextEvent = %q, %v; want the event on the one live segment", res.ev.Data, res.err)
	}
}

// TestFetchersStopWithReaderClose checks Close returns only after every
// fetcher has, and that nothing reads on its behalf afterwards.
func TestFetchersStopWithReaderClose(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "fclose", "s", 2)
	rg, err := sys.NewReaderGroup("rg-fclose", "fclose", "s")
	if err != nil {
		t.Fatal(err)
	}
	reads := watchReads(rg)
	r, err := rg.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadNextEvent(0); !errors.Is(err, ErrNoEvent) {
		t.Fatalf("ReadNextEvent(0) on an empty stream: %v", err)
	}
	segs := ownedSegments(r)
	if len(segs) != 2 {
		t.Fatalf("reader owns %d segments, want 2", len(segs))
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		select {
		case <-seg.done:
		default:
			t.Fatalf("fetcher of %s still running after Close", seg.rec.Qualified)
		}
	}
	expectNoReads(t, reads)
}

// TestFetchersStopWithSystemClose checks a reader nobody closed stops
// fetching when its System closes.
func TestFetchersStopWithSystemClose(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "fsys", "s", 2)
	rg, err := sys.NewReaderGroup("rg-fsys", "fsys", "s")
	if err != nil {
		t.Fatal(err)
	}
	reads := watchReads(rg)
	r, err := rg.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadNextEvent(0); !errors.Is(err, ErrNoEvent) {
		t.Fatalf("ReadNextEvent(0) on an empty stream: %v", err)
	}
	segs := ownedSegments(r)
	if len(segs) != 2 {
		t.Fatalf("reader owns %d segments, want 2", len(segs))
	}
	sys.Close()
	for _, seg := range segs {
		select {
		case <-seg.done:
		case <-time.After(5 * time.Second):
			t.Fatalf("fetcher of %s still running after System.Close", seg.rec.Qualified)
		}
	}
	expectNoReads(t, reads)
}

// expectNoReads fails unless no read is running and none starts for a while.
func expectNoReads(t *testing.T, reads *watchedReads) {
	t.Helper()
	before, inflight := reads.snapshot()
	if inflight != 0 {
		t.Fatalf("%d reads still running after the fetchers stopped", inflight)
	}
	time.Sleep(200 * time.Millisecond)
	if after, _ := reads.snapshot(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("reads continued after the fetchers stopped: %v, then %v", before, after)
	}
}

// TestFetchersStayOneAheadOfConsumer stops consuming after one event of a
// multi-MiB backlog per segment: no segment may be read more than one fetch
// ahead of what the consumer took.
func TestFetchersStayOneAheadOfConsumer(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "ahead", "s", 2)
	w, err := sys.NewWriter(WriterConfig{Scope: "ahead", Stream: "s"})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64<<10)
	const perSegment = 48 // 3 MiB: three full fetches
	keys := segmentsByKey(t, sys, "ahead", "s")
	for i := 0; i < perSegment; i++ {
		for _, key := range keys {
			w.WriteEvent(key, payload)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rg, err := sys.NewReaderGroup("rg-ahead", "ahead", "s")
	if err != nil {
		t.Fatal(err)
	}
	reads := watchReads(rg)
	r, err := rg.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.ReadNextEvent(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	calls, _ := reads.snapshot()
	for qn := range keys {
		if n := calls[qn]; n < 1 || n > 2 {
			t.Errorf("segment %s: %d reads with the consumer stopped, want 1 or 2", qn, n)
		}
	}
}

// TestReaderResumesAtTruncatedHead truncates a stream past a reader's
// position while it is away: back, it must resume at the new head and
// deliver every event after the cut exactly once and nothing before it.
func TestReaderResumesAtTruncatedHead(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "trunc", "s", 2)
	w, err := sys.NewWriter(WriterConfig{Scope: "trunc", Stream: "s"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	write := func(prefix string) {
		for i := 0; i < 20; i++ {
			w.WriteEvent(fmt.Sprintf("k%d", i%5), []byte(fmt.Sprintf("%s-%02d", prefix, i)))
		}
		if err := w.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	rg, err := sys.NewReaderGroup("rg-trunc", "trunc", "s")
	if err != nil {
		t.Fatal(err)
	}
	r, err := rg.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	write("read")
	for i := 0; i < 20; i++ {
		if _, err := r.ReadNextEvent(2 * time.Second); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	write("cut")
	if err := sys.Streams().Truncate(context.Background(), "trunc", "s"); err != nil {
		t.Fatal(err)
	}
	write("after")

	segs, err := sys.control.GetActiveSegments("trunc", "s")
	if err != nil {
		t.Fatal(err)
	}
	head := map[int64]int64{}
	for _, s := range segs {
		info, err := rg.conn.GetInfo(s.ID.QualifiedName())
		if err != nil {
			t.Fatal(err)
		}
		head[s.ID.Number] = info.StartOffset
	}

	if r, err = rg.NewReader("r1"); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := map[string]int{}
	for {
		ev, err := r.ReadNextEvent(500 * time.Millisecond)
		if errors.Is(err, ErrNoEvent) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Offset < head[ev.Segment] {
			t.Errorf("%q reported at offset %d, below segment %d's head %d", ev.Data, ev.Offset, ev.Segment, head[ev.Segment])
		}
		got[string(ev.Data)]++
	}
	for ev, n := range got {
		if !strings.HasPrefix(ev, "after-") || n != 1 {
			t.Errorf("delivered %q %d times", ev, n)
		}
	}
	if len(got) != 20 {
		t.Errorf("delivered %d distinct events after the cut, want 20", len(got))
	}
}

// TestQuietGroupCostsOneLongPoll blocks a reader on a quiet two-segment
// group: keeping its view of the group current must cost the state
// segment's long poll, at most two reads a second, not a re-sync on a clock.
func TestQuietGroupCostsOneLongPoll(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "quiet", "s", 2)
	rg, reads := watchedGroup(t, sys, "rg-quiet", "quiet", "s")
	r, err := rg.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := r.ReadNextEventCtx(ctx)
		done <- err
	}()
	// Let the first pass, and the wake its own acquisitions cause, settle.
	time.Sleep(300 * time.Millisecond)
	if n := len(ownedSegments(r)); n != 2 {
		t.Fatalf("reader owns %d segments, want 2", n)
	}
	before, _ := reads.snapshot()
	time.Sleep(time.Second)
	after, _ := reads.snapshot()
	if n := after[rg.stateSeg] - before[rg.stateSeg]; n > 2 {
		t.Errorf("%d reads of the group's state segment in 1 s of a quiet group, want <= 2", n)
	}
	select {
	case err := <-done:
		t.Fatalf("ReadNextEventCtx returned on a quiet group: %v", err)
	default:
	}
	cancel()
	<-done
}

// TestJoinSeenWhileBlocked gives r1 both segments of a stream holding one
// event each, and parks r1's reads so it stays blocked in ReadNextEventCtx.
// r2 then joins and waits in one ReadNextEventCtx, with nobody calling
// ReadNextEvent(0): r1 must release a segment and r2 take it and deliver
// its event because the group changed, well within 100 ms.
func TestJoinSeenWhileBlocked(t *testing.T) {
	sys := newTestSystem(t)
	mustCreate(t, sys, "join", "s", 2)
	keys := segmentsByKey(t, sys, "join", "s")
	w, err := sys.NewWriter(WriterConfig{Scope: "join", Stream: "s"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, key := range keys {
		w.WriteEvent(key, []byte(key))
	}
	if err := w.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	var segs []string
	written := map[string]bool{}
	for qn, key := range keys {
		segs = append(segs, qn)
		written[key] = true
	}
	// Two handles on one group: r1's reads of both segments never return.
	rg1, _ := watchedGroup(t, sys, "rg-join", "join", "s", segs...)
	rg2, err := sys.NewReaderGroup("rg-join", "join", "s")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := rg1.NewReader("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	done1 := make(chan error, 1)
	go func() {
		_, err := r1.ReadNextEventCtx(ctx1)
		done1 <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); len(ownedSegments(r1)) != 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("r1 never owned both segments")
		}
	}

	r2, err := rg2.NewReader("r2")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 80*time.Millisecond)
	defer cancel2()
	ev, err := r2.ReadNextEventCtx(ctx2)
	if err != nil {
		t.Fatalf("r2 got no event within 80 ms of joining: %v (r1 owns %d segments)", err, len(ownedSegments(r1)))
	}
	if !written[string(ev.Data)] {
		t.Fatalf("r2 read %q", ev.Data)
	}
	select {
	case err := <-done1:
		t.Fatalf("r1 returned from ReadNextEventCtx: %v", err)
	default:
	}
	if n := len(ownedSegments(r1)); n != 1 {
		t.Errorf("r1 owns %d segments after r2 joined, want 1", n)
	}
}
