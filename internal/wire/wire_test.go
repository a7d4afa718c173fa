package wire_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/controller"
	"github.com/pravega-go/pravega/internal/placement"
	"github.com/pravega-go/pravega/internal/role"
	. "github.com/pravega-go/pravega/internal/wire"
)

// newCluster starts a coord and its stores on loopback TCP.
func newCluster(tb testing.TB, stores, containers int) *role.Cluster {
	tb.Helper()
	cl, err := role.StartCluster(role.TCPNet("127.0.0.1:0"), role.ClusterConfig{
		Coord: role.CoordConfig{Stores: stores, Containers: containers},
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(cl.Close)
	return cl
}

// dial opens a raw connection for the test's lifetime.
func dial(tb testing.TB, addr string) *Conn {
	tb.Helper()
	conn, err := Dial(DialTCP, addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = conn.Close() })
	return conn
}

// storeAddr finds the address of container 0's store as a client finds
// it: in the coord's placement snapshot.
func storeAddr(tb testing.TB, ctrl *Conn) string {
	tb.Helper()
	rep, err := ctrl.Call(MsgClusterInfo, struct{}{})
	if err != nil {
		tb.Fatal(err)
	}
	var snap placement.Snapshot
	if err := json.Unmarshal(rep.Data, &snap); err != nil || snap.Owner[0].Addr == "" {
		tb.Fatalf("cluster info: %+v, %v", snap, err)
	}
	return snap.Owner[0].Addr
}

// newConns starts a one-store cluster and opens a raw connection to its
// coord (control) and one to its store (data).
func newConns(tb testing.TB, containers int) (cl *role.Cluster, ctrl, data *Conn) {
	tb.Helper()
	cl = newCluster(tb, 1, containers)
	ctrl = dial(tb, cl.Addr())
	return cl, ctrl, dial(tb, storeAddr(tb, ctrl))
}

func TestWireStreamLifecycleAndIO(t *testing.T) {
	_, conn, data := newConns(t, 2)

	if _, err := conn.Call(MsgCreateScope, StreamReq{Scope: "s"}); err != nil {
		t.Fatalf("create scope: %v", err)
	}
	if _, err := conn.Call(MsgCreateStream, StreamReq{Scope: "s", Stream: "st", Segments: 2}); err != nil {
		t.Fatalf("create stream: %v", err)
	}
	rep, err := conn.Call(MsgActiveSegments, StreamReq{Scope: "s", Stream: "st"})
	if err != nil {
		t.Fatalf("active segments: %v", err)
	}
	var segs []controller.SegmentWithRange
	if err := json.Unmarshal(rep.Data, &segs); err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("got %d segments, want 2", len(segs))
	}

	seg := segs[0].ID.QualifiedName()
	var frame []byte
	payload := []byte("hello wire")
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	frame = append(frame, hdr[:]...)
	frame = append(frame, payload...)
	ar, err := data.Call(MsgAppend, AppendReq{
		Segment: seg, Data: frame, WriterID: "w", EventNum: 1, EventCount: 1, CondOffset: -1,
	})
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if ar.Offset != 0 {
		t.Fatalf("append offset %d, want 0", ar.Offset)
	}

	rr, err := data.Call(MsgRead, ReadReq{Segment: seg, Offset: 0, MaxBytes: 1024, WaitMS: 1000})
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(rr.Data[4:]) != "hello wire" {
		t.Fatalf("read %q", rr.Data)
	}

	// Writer state handshake (§3.2).
	ws, err := data.Call(MsgWriterState, SegmentReq{Segment: seg, WriterID: "w"})
	if err != nil || ws.Offset != 1 {
		t.Fatalf("writer state = %v,%v; want 1", ws.Offset, err)
	}

	// Scale through the wire and confirm the segment count.
	if _, err := conn.Call(MsgScaleSegments, ScaleReq{Scope: "s", Stream: "st", Seal: []int64{segs[0].ID.Number}, Ranges: segs[0].KeyRange.Split(2)}); err != nil {
		t.Fatalf("scale: %v", err)
	}
	sc, err := conn.Call(MsgSegmentCount, StreamReq{Scope: "s", Stream: "st"})
	if err != nil || sc.Count != 3 {
		t.Fatalf("segment count = %d,%v; want 3", sc.Count, err)
	}
	// Successors of the sealed segment are retrievable.
	su, err := conn.Call(MsgSuccessors, StreamReq{Scope: "s", Stream: "st", Segment: segs[0].ID.Number})
	if err != nil || su.Count != 2 {
		t.Fatalf("successors = %d,%v; want 2", su.Count, err)
	}
}

func TestWirePipelinedAppends(t *testing.T) {
	_, conn, data := newConns(t, 2)
	if _, err := conn.Call(MsgCreateScope, StreamReq{Scope: "p"}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Call(MsgCreateStream, StreamReq{Scope: "p", Stream: "st", Segments: 1}); err != nil {
		t.Fatal(err)
	}
	rep, err := conn.Call(MsgActiveSegments, StreamReq{Scope: "p", Stream: "st"})
	if err != nil {
		t.Fatal(err)
	}
	var segs []controller.SegmentWithRange
	if err := json.Unmarshal(rep.Data, &segs); err != nil {
		t.Fatal(err)
	}
	seg := segs[0].ID.QualifiedName()

	// Pipeline 50 appends without waiting; offsets must come back in
	// submission order.
	const n = 50
	chans := make([]<-chan Reply, n)
	for i := 0; i < n; i++ {
		payload := []byte(fmt.Sprintf("%04d", i))
		ch, err := data.CallAsync(MsgAppend, AppendReq{
			Segment: seg, Data: payload, WriterID: "pw", EventNum: int64(i + 1), EventCount: 1, CondOffset: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	for i, ch := range chans {
		select {
		case rep := <-ch:
			if rep.Err != "" {
				t.Fatalf("append %d: %s", i, rep.Err)
			}
			if want := int64(i * 4); rep.Offset != want {
				t.Fatalf("append %d offset %d, want %d (order violated)", i, rep.Offset, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("append %d never acknowledged", i)
		}
	}
}

func TestWireErrorPropagation(t *testing.T) {
	_, conn, data := newConns(t, 2)
	if _, err := data.Call(MsgRead, ReadReq{Segment: "no/such/0.#epoch.0", Offset: 0, MaxBytes: 10}); err == nil {
		t.Fatal("expected error reading missing segment")
	}
	if _, err := conn.Call(MsgSegmentCount, StreamReq{Scope: "x", Stream: "y"}); err == nil {
		t.Fatal("expected error for missing stream")
	}
}

// TestDuplicateLongPollCancelsAllOnDrop pins that two long-poll reads
// carrying the SAME request id (duplicate frame delivery — a fault the
// nemesis proxy injects) are BOTH cancelled when the connection drops: the
// connection's context ends every request on it, whatever its id, so no
// tail waiter stays blocked for its full wait after the client is gone.
func TestDuplicateLongPollCancelsAllOnDrop(t *testing.T) {
	cl := newCluster(t, 1, 2)
	ctrl := cl.Controller()
	if err := ctrl.CreateScope("dup"); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.CreateStream(controller.StreamConfig{Scope: "dup", Name: "s", InitialSegments: 1}); err != nil {
		t.Fatal(err)
	}
	segs, err := ctrl.GetActiveSegments("dup", "s")
	if err != nil || len(segs) == 0 {
		t.Fatalf("active segments: %v", err)
	}
	seg := segs[0].ID.QualifiedName()
	cont, err := cl.Stores()[0].Container(seg)
	if err != nil {
		t.Fatal(err)
	}

	raw, err := net.Dial("tcp", storeAddr(t, dial(t, cl.Addr())))
	if err != nil {
		t.Fatal(err)
	}
	var frames bytes.Buffer
	req := ReadReq{Segment: seg, Offset: 0, MaxBytes: 1024, WaitMS: 20_000}
	for range 2 { // same id on both frames
		if err := WriteFrame(&frames, MsgRead, 42, req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := raw.Write(frames.Bytes()); err != nil {
		t.Fatal(err)
	}

	waitFor := func(want int, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for cont.TailWaiters(seg) != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d tail waiters, want %d", what, cont.TailWaiters(seg), want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitFor(2, "after duplicate long-polls")
	_ = raw.Close()
	// Both server-side reads must be cancelled and their tail waiters
	// deregistered well before the 20s wait expires.
	waitFor(0, "after connection drop")
}
