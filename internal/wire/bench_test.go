package wire_test

import (
	"encoding/json"
	"testing"

	"github.com/pravega-go/pravega/internal/controller"
	. "github.com/pravega-go/pravega/internal/wire"
)

// newBenchConns starts a one-store cluster holding stream "b/st" and opens
// a raw connection to its coord and one to its store.
func newBenchConns(b *testing.B) (conn, data *Conn) {
	b.Helper()
	_, conn, data = newConns(b, 1)
	if _, err := conn.Call(MsgCreateScope, StreamReq{Scope: "b"}); err != nil {
		b.Fatal(err)
	}
	if _, err := conn.Call(MsgCreateStream, StreamReq{Scope: "b", Stream: "st", Segments: 1}); err != nil {
		b.Fatal(err)
	}
	return conn, data
}

func benchSegment(b *testing.B, conn *Conn) string {
	b.Helper()
	rep, err := conn.Call(MsgActiveSegments, StreamReq{Scope: "b", Stream: "st"})
	if err != nil {
		b.Fatal(err)
	}
	var segs []controller.SegmentWithRange
	if err := json.Unmarshal(rep.Data, &segs); err != nil {
		b.Fatal(err)
	}
	return segs[0].ID.QualifiedName()
}

// BenchmarkWireAppend measures the full client→TCP→store→container append
// round trip with 100 B events, pipelined in a bounded window. allocs/op
// spans both ends of the connection (in-process store), so it captures the
// encode, frame, decode and reply costs of the append wire path.
func BenchmarkWireAppend(b *testing.B) {
	conn, data := newBenchConns(b)
	seg := benchSegment(b, conn)
	payload := make([]byte, 100)
	const window = 128
	pending := make([]<-chan Reply, 0, window)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch, err := data.CallAsync(MsgAppend, AppendReq{Segment: seg, Data: payload, CondOffset: -1})
		if err != nil {
			b.Fatal(err)
		}
		pending = append(pending, ch)
		if len(pending) == window {
			for _, ch := range pending {
				if rep := <-ch; rep.Err != "" {
					b.Fatal(rep.Err)
				}
			}
			pending = pending[:0]
		}
	}
	for _, ch := range pending {
		if rep := <-ch; rep.Err != "" {
			b.Fatal(rep.Err)
		}
	}
	b.StopTimer()
	b.SetBytes(100)
}

// BenchmarkWireAppendCodec isolates the message codec: encode an append
// request and decode it back, no sockets. It is the pure serialization cost
// the binary framing work targets.
func BenchmarkWireAppendCodec(b *testing.B) {
	req := AppendReq{
		Segment: "b/st/0.#epoch.0", Data: make([]byte, 100),
		WriterID: "writer-0", EventNum: 7, EventCount: 1, CondOffset: -1,
	}
	var sink discardWriter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteFrame(&sink, MsgAppend, 42, req); err != nil {
			b.Fatal(err)
		}
	}
}

// discardWriter swallows writes (codec benchmarks).
type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
