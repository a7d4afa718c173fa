package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/controller"
	"github.com/pravega-go/pravega/internal/hosting"
	"github.com/pravega-go/pravega/internal/placement"
)

// newBackend builds the cluster and controller a wire server fronts.
func newBackend(tb testing.TB, cfg hosting.ClusterConfig) (*hosting.Cluster, *controller.Controller) {
	tb.Helper()
	cl, err := hosting.NewCluster(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(cl.Close)
	ctrl, err := controller.New(controller.Config{Data: cl.Router(), Cluster: cl.Meta})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(ctrl.Close)
	return cl, ctrl
}

// clusterPlanes is the config cmd/pravega-server's -role all serves: every
// plane of the cluster but the bookies.
func clusterPlanes(cl *hosting.Cluster, ctrl *controller.Controller) ServerConfig {
	return ServerConfig{
		Data:      cl.Router(),
		Ctrl:      ctrl,
		Coord:     cl.Meta,
		Placement: placement.CoordSource{Coord: cl.Meta, Total: cl.TotalContainers()},
		Load:      cl.Router().LoadReports,
	}
}

func serveConfig(tb testing.TB, cfg ServerConfig) *Server {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	srv := NewServer(cfg, ln)
	tb.Cleanup(func() { _ = srv.Close() })
	return srv
}

func newClusterServer(tb testing.TB, cl *hosting.Cluster, ctrl *controller.Controller) *Server {
	tb.Helper()
	return serveConfig(tb, clusterPlanes(cl, ctrl))
}

func newServer(t *testing.T) (*Server, *Conn) {
	t.Helper()
	cl, ctrl := newBackend(t, hosting.ClusterConfig{Stores: 1, ContainersPerStore: 2, Bookies: 3})
	srv := newClusterServer(t, cl, ctrl)
	conn, err := Dial(DialTCP, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return srv, conn
}

func TestWireStreamLifecycleAndIO(t *testing.T) {
	_, conn := newServer(t)

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
	ar, err := conn.Call(MsgAppend, AppendReq{
		Segment: seg, Data: frame, WriterID: "w", EventNum: 1, EventCount: 1, CondOffset: -1,
	})
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if ar.Offset != 0 {
		t.Fatalf("append offset %d, want 0", ar.Offset)
	}

	rr, err := conn.Call(MsgRead, ReadReq{Segment: seg, Offset: 0, MaxBytes: 1024, WaitMS: 1000})
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if string(rr.Data[4:]) != "hello wire" {
		t.Fatalf("read %q", rr.Data)
	}

	// Writer state handshake (§3.2).
	ws, err := conn.Call(MsgWriterState, SegmentReq{Segment: seg, WriterID: "w"})
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
	_, conn := newServer(t)
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
		data := []byte(fmt.Sprintf("%04d", i))
		ch, err := conn.CallAsync(MsgAppend, AppendReq{
			Segment: seg, Data: data, WriterID: "pw", EventNum: int64(i + 1), EventCount: 1, CondOffset: -1,
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
	_, conn := newServer(t)
	if _, err := conn.Call(MsgRead, ReadReq{Segment: "no/such/0.#epoch.0", Offset: 0, MaxBytes: 10}); err == nil {
		t.Fatal("expected error reading missing segment")
	}
	if _, err := conn.Call(MsgSegmentCount, StreamReq{Scope: "x", Stream: "y"}); err == nil {
		t.Fatal("expected error for missing stream")
	}
}
