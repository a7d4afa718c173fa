package wire

import (
	"net"
	"testing"

	"github.com/pravega-go/pravega/internal/segment"
)

// serveConfig serves cfg on a loopback port for the test's lifetime.
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

// rawBody is a pre-encoded request body: it lets a test put arbitrary bytes
// behind any message type.
type rawBody []byte

func (b rawBody) marshalBinary(dst []byte, payload [][]byte) ([]byte, [][]byte) {
	return append(dst, b...), payload
}

// The rest is what the external tests (package wire_test, which start
// clusters from internal/role) reach of the package's internals.

type (
	RawBody = rawBody
	Plane   = plane
)

const (
	MsgEnd       = msgEnd
	PlaneData    = planeData
	PlaneCtrl    = planeCtrl
	PlaneCoord   = planeCoord
	PlaneBookies = planeBookies
	PlaneInfo    = planeInfo
)

var (
	ServeConfig = serveConfig
	WriteFrame  = writeFrame
	ReadMessage = readMessage
)

// EncodeBody is a body's whole encoding, its payload copied in after the
// rest.
func EncodeBody(dst []byte, body any) ([]byte, error) {
	dst, payload, err := encodeBody(dst, nil, body)
	for _, p := range payload {
		dst = append(dst, p...)
	}
	return dst, err
}

// HandlerPlane reports whether typ has a row in the handler table, and the
// row's plane.
func HandlerPlane(typ MessageType) (Plane, bool) {
	h := handlerFor(typ)
	if h == nil {
		return 0, false
	}
	return h.plane, true
}

// Served names plane p and reports whether the server's config carries it.
func (s *Server) Served(p Plane) (string, bool) { return s.served(p) }

// OpenConns counts the connections the server still serves.
func (s *Server) OpenConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// UnmarshalReply decodes a reply body.
func UnmarshalReply(raw []byte) (Reply, error) {
	var rep Reply
	err := rep.unmarshalBinary(raw)
	return rep, err
}

// ReadWaits reports whether body is a read request with a wait.
func ReadWaits(body []byte) bool {
	var req ReadReq
	return req.unmarshalBinary(body) == nil && req.WaitMS > 0
}

// DecodeInfo decodes a MsgGetInfo reply.
func DecodeInfo(rep Reply, err error) (segment.Info, error) {
	return decode[segment.Info](rep, err, "segment info")
}
