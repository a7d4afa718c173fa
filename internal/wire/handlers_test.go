package wire_test

import (
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/pravega-go/pravega/internal/bookkeeper"
	"github.com/pravega-go/pravega/internal/controller"
	"github.com/pravega-go/pravega/internal/keyspace"
	"github.com/pravega-go/pravega/internal/placement"
	. "github.com/pravega-go/pravega/internal/wire"
)

// notRequests are the type numbers below msgEnd that must have no row: the
// three retired slots and the reply envelope.
var notRequests = map[MessageType]bool{13: true, 16: true, MsgReplyBin: true, 25: true}

// allPlanes builds a config with every plane present — no role serves
// them all — from the pieces of a one-store cluster that already holds
// stream "fz/st".
func allPlanes(tb testing.TB) (cfg ServerConfig, seg string) {
	tb.Helper()
	cl := newCluster(tb, 1, 2)
	ctrl := cl.Controller()
	if err := ctrl.CreateScope("fz"); err != nil {
		tb.Fatal(err)
	}
	if err := ctrl.CreateStream(controller.StreamConfig{Scope: "fz", Name: "st", InitialSegments: 1}); err != nil {
		tb.Fatal(err)
	}
	segs, err := ctrl.GetActiveSegments("fz", "st")
	if err != nil || len(segs) != 1 {
		tb.Fatalf("active segments: %v, %v", segs, err)
	}
	bk := bookkeeper.NewBookie(bookkeeper.BookieConfig{ID: "bookie-0"})
	tb.Cleanup(bk.Close)
	st := cl.Stores()[0]
	return ServerConfig{
		Data:      placement.Local{St: st},
		Ctrl:      ctrl,
		Coord:     cl.Meta(),
		Bookies:   map[string]bookkeeper.Node{"bookie-0": bk},
		Placement: placement.CoordSource{Coord: cl.Meta(), Total: cl.TotalContainers()},
	}, segs[0].ID.QualifiedName()
}

// callWithin is Conn.Call with a deadline, so a request the server fails to
// answer fails the test instead of hanging it.
func callWithin(t *testing.T, conn *Conn, typ MessageType, body any) Reply {
	t.Helper()
	ch, err := conn.CallAsync(typ, body)
	if err != nil {
		t.Fatalf("type %d: %v", typ, err)
	}
	select {
	case rep := <-ch:
		return rep
	case <-time.After(10 * time.Second):
		t.Fatalf("type %d: no reply", typ)
		return Reply{}
	}
}

// TestHandlerTableComplete checks the table against the protocol's constants
// and the plane column against ServerConfig: every request type has a row and
// nothing else does, a row answers "not served" exactly when its plane is
// absent, and an unknown type costs an error reply, not the connection.
func TestHandlerTableComplete(t *testing.T) {
	for typ := MessageType(0); typ < 255; typ++ {
		want := typ >= 1 && typ < MsgEnd && !notRequests[typ]
		if _, got := HandlerPlane(typ); got != want {
			t.Errorf("type %d: has a row = %v, want %v", typ, got, want)
		}
	}

	full, seg := allPlanes(t)
	absent := map[Plane]func(*ServerConfig){
		PlaneData:    func(c *ServerConfig) { c.Data = nil },
		PlaneCtrl:    func(c *ServerConfig) { c.Ctrl = nil },
		PlaneCoord:   func(c *ServerConfig) { c.Coord = nil },
		PlaneBookies: func(c *ServerConfig) { c.Bookies = nil },
		PlaneInfo:    func(c *ServerConfig) { c.Placement = nil },
	}
	for p, drop := range absent {
		cfg := full
		drop(&cfg)
		srv := ServeConfig(t, cfg)
		name, ok := srv.Served(p)
		if ok {
			t.Fatalf("plane %d still served after its backend was dropped", p)
		}
		conn, err := Dial(DialTCP, srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		for typ := MessageType(1); typ < MsgEnd; typ++ {
			hp, ok := HandlerPlane(typ)
			if !ok {
				continue
			}
			// A body no decoder accepts: a served row gets as far as
			// rejecting it, and no handler runs.
			rep := callWithin(t, conn, typ, RawBody{0xFF})
			if rep.Err == "" {
				t.Errorf("without %s: type %d accepted a malformed body", name, typ)
			}
			notServed := strings.Contains(rep.Err, name+" plane not served")
			if notServed != (hp == p) {
				t.Errorf("without %s: type %d (plane %d) answered %q", name, typ, hp, rep.Err)
			}
		}
		_ = conn.Close()
	}

	conn, err := Dial(DialTCP, ServeConfig(t, full).Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, typ := range []MessageType{13, 16, MsgReplyBin, 25, MsgEnd, 200} {
		if rep := callWithin(t, conn, typ, struct{}{}); !strings.Contains(rep.Err, "unknown request type") {
			t.Errorf("type %d answered %+v, want an unknown-type error", typ, rep)
		}
	}
	rep := callWithin(t, conn, MsgGetInfo, SegmentReq{Segment: seg})
	if _, err := DecodeInfo(rep, ReplyError(rep)); err != nil {
		t.Fatalf("connection unusable after unknown types: %v", err)
	}
}

// validRequests holds one well-formed body per request type; a type added
// to the table without an entry here fails FuzzServerDispatch's seeding.
func validRequests(seg string) map[MessageType]any {
	const gone = "fz/gone/0.#epoch.0" // destructive rows aim at a segment nobody reads
	stream := StreamReq{Scope: "fz", Stream: "st"}
	txn := TxnReq{Scope: "fz", Stream: "st", TxnID: "no-such-txn"}
	bk := BookieReq{Bookies: []string{"bookie-0"}, Ledger: 7, Entry: 0, Data: []byte("entry")}
	event := []byte("\x00\x00\x00\x01x") // the segment's only bytes, so the read below waits at its tail
	return map[MessageType]any{
		MsgCreateSegment:      SegmentReq{Segment: gone},
		MsgAppend:             AppendReq{Segment: seg, Data: event, WriterID: "w", EventNum: 1, EventCount: 1, CondOffset: -1},
		MsgRead:               ReadReq{Segment: seg, Offset: int64(len(event)), MaxBytes: 1024, WaitMS: 30_000},
		MsgSeal:               SegmentReq{Segment: gone},
		MsgTruncate:           SegmentReq{Segment: gone, Offset: 1},
		MsgDeleteSegment:      SegmentReq{Segment: gone},
		MsgGetInfo:            SegmentReq{Segment: seg},
		MsgWriterState:        SegmentReq{Segment: seg, WriterID: "w"},
		MsgCreateScope:        StreamReq{Scope: "fz2"},
		MsgCreateStream:       StreamReq{Scope: "fz2", Stream: "st", Segments: 2},
		MsgActiveSegments:     stream,
		MsgSuccessors:         stream,
		MsgSealStream:         StreamReq{Scope: "fz2", Stream: "st"},
		MsgSegmentCount:       stream,
		MsgHeadSegments:       stream,
		MsgTruncateStream:     TruncateStreamReq{Scope: "fz2", Stream: "st", Cut: map[int64]int64{0: 0}},
		MsgDeleteStream:       StreamReq{Scope: "fz2", Stream: "st"},
		MsgStreamConfig:       stream,
		MsgUpdatePolicies:     stream,
		MsgIsSealed:           stream,
		MsgScaleSegments:      ScaleReq{Scope: "fz2", Stream: "st", Seal: []int64{0}, Ranges: keyspace.FullRange().Split(2)},
		MsgClusterInfo:        struct{}{},
		MsgBeginTxn:           TxnReq{Scope: "fz", Stream: "st", LeaseMS: 1000},
		MsgCommitTxn:          txn,
		MsgAbortTxn:           txn,
		MsgTxnStatus:          txn,
		MsgMergeSegments:      MergeReq{Target: gone, Source: gone},
		MsgCoordCreate:        CoordReq{Path: "/fz", Data: []byte("d")},
		MsgCoordGet:           CoordReq{Path: "/fz"},
		MsgCoordSet:           CoordReq{Path: "/fz", Data: []byte("e"), Version: -1},
		MsgCoordDelete:        CoordReq{Path: "/fz/none", Version: -1},
		MsgCoordChildren:      CoordReq{Path: "/"},
		MsgCoordExists:        CoordReq{Path: "/fz"},
		MsgCoordWatchData:     CoordReq{Path: "/", KnownVersion: -1},
		MsgCoordWatchChildren: CoordReq{Path: "/", KnownVersion: -1},
		MsgCoordSessionOpen:   CoordReq{TTLMS: 50},
		MsgCoordSessionRenew:  CoordReq{SessionID: 1 << 40},
		MsgCoordSessionClose:  CoordReq{SessionID: 1 << 40},
		MsgBookieAdd:          BookieReq{Bookies: []string{"bookie-0", "no-such-bookie"}, Ledger: 7, Entry: 1, Data: []byte("entry")},
		MsgBookieRead:         bk,
		MsgBookieFence:        bk,
		MsgBookieDeleteLedger: bk,
		MsgWatchEpoch:         EpochReq{Known: 1 << 40},
		MsgLoadReport:         struct{}{},
	}
}

// FuzzServerDispatch puts arbitrary (type, body) frames on a live loopback
// connection, each followed by a well-formed MsgGetInfo. The MsgGetInfo
// must be answered, and so must the frame — exactly once — unless it
// long-polls (longPolls); then the server must end it when the connection
// closes. Either way the server must not panic.
func FuzzServerDispatch(f *testing.F) {
	cfg, seg := allPlanes(f)
	srv := ServeConfig(f, cfg)
	seeds := validRequests(seg)
	for typ := MessageType(1); typ < MsgEnd; typ++ {
		if _, ok := HandlerPlane(typ); !ok {
			continue
		}
		body, ok := seeds[typ]
		if !ok {
			f.Fatalf("request type %d has a row but no seed in validRequests", typ)
		}
		enc, err := EncodeBody(nil, body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(typ), enc)
	}
	f.Add(uint8(0), []byte{})
	for typ, body := range map[MessageType]any{MsgReplyBin: Reply{Offset: 1}, MsgGetInfo: AppendReq{Segment: seg}} {
		enc, err := EncodeBody(nil, body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(typ), enc)
	}
	f.Add(uint8(MsgAppend), []byte(`{"segment":"json where a layout belongs"}`))
	f.Add(uint8(25), []byte(`{"reqId":1}`)) // the retired MsgCancelRead

	f.Fuzz(func(t *testing.T, typ uint8, body []byte) {
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		_ = nc.SetDeadline(time.Now().Add(20 * time.Second))
		var out bytes.Buffer
		if err := WriteFrame(&out, MessageType(typ), 1, RawBody(body)); err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(&out, MsgGetInfo, 2, SegmentReq{Segment: seg}); err != nil {
			t.Fatal(err)
		}
		if _, err := nc.Write(out.Bytes()); err != nil {
			t.Fatal(err)
		}
		replies := make(map[uint64]Reply)
		polls := longPolls(MessageType(typ), body)
		for {
			if _, info := replies[2]; info && (polls || len(replies) == 2) {
				break
			}
			rt, id, raw, err := ReadMessage(nc)
			if err != nil {
				t.Fatalf("after %d replies: %v", len(replies), err)
			}
			rep, err := UnmarshalReply(raw)
			if rt != MsgReplyBin || err != nil {
				t.Fatalf("reply to %d: type %d, %v", id, rt, err)
			}
			if _, dup := replies[id]; dup || id < 1 || id > 2 {
				t.Fatalf("unexpected or repeated reply to request %d: %+v", id, rep)
			}
			replies[id] = rep
		}
		// The segment may be gone by now (the fuzzer is free to delete it);
		// an answer that claims success must carry its record.
		if info := replies[2]; info.Err == "" {
			if _, err := DecodeInfo(info, nil); err != nil {
				t.Fatal(err)
			}
		}
		// The server lets a connection go only once its requests have
		// ended, so an empty list means no long poll outlived this one.
		_ = nc.Close()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			open := srv.OpenConns()
			if open == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d connections still served 5s after the client closed", open)
			}
		}
	})
}

// longPolls reports whether a frame may wait for an event before it is
// answered: a read with a wait, a coord watch or a placement-epoch watch.
func longPolls(typ MessageType, body []byte) bool {
	switch typ {
	case MsgRead:
		return ReadWaits(body)
	case MsgCoordWatchData, MsgCoordWatchChildren, MsgWatchEpoch:
		return true
	}
	return false
}
