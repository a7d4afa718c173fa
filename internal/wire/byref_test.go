package wire

import (
	"bytes"
	"encoding/hex"
	"testing"

	"github.com/pravega-go/pravega/internal/bookkeeper"
	"github.com/pravega-go/pravega/internal/placement"
	"github.com/pravega-go/pravega/internal/segstore"
)

// keepAppends is a data plane that keeps the payload of every append.
type keepAppends struct {
	placement.Store
	data [][]byte
}

func (k *keepAppends) AppendAfter(_ string, data []byte, _ string, _, _ int64, _ int32, _ func(segstore.AppendResult)) {
	k.data = append(k.data, data)
}

// keepAdds is a bookie that keeps the payload of every add.
type keepAdds struct {
	bookkeeper.Node
	data [][]byte
}

func (k *keepAdds) AddEntry(_, _ int64, data []byte, cb func(error)) {
	k.data = append(k.data, data)
	cb(nil)
}

// TestServerPayloadAliasesBodyBuffer: the server reads each message into a
// buffer of its own and hands an append's or a bookie add's payload on as a
// slice of it, not a copy: a write to the body shows through the payload
// the data plane or the bookie was given.
func TestServerPayloadAliasesBodyBuffer(t *testing.T) {
	st, bk := &keepAppends{}, &keepAdds{}
	c := &srvConn{
		srv: &Server{cfg: ServerConfig{Data: st, Bookies: map[string]bookkeeper.Node{"b": bk}}},
		rw:  &replyWriter{kick: make(chan struct{}, 1)},
	}
	serve := func(typ MessageType, body any) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := writeFrame(&buf, typ, 1, body); err != nil {
			t.Fatal(err)
		}
		typ, id, raw, err := readMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := handlerFor(typ).start(c, id, raw); err != nil {
			t.Fatal(err)
		}
		return raw
	}
	aliases := func(what string, raw, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: payload %q, want %q", what, got, want)
		}
		for i := range raw {
			raw[i] ^= 0xFF
		}
		if bytes.Equal(got, want) {
			t.Errorf("%s: the payload is a copy of the message body", what)
		}
	}
	want := []byte("appended bytes")
	raw := serve(MsgAppend, &AppendReq{Segment: "s", Data: want, CondOffset: -1})
	if len(st.data) != 1 {
		t.Fatalf("%d appends reached the data plane", len(st.data))
	}
	aliases("append", raw, st.data[0], want)

	raw = serve(MsgBookieAdd, &BookieReq{Bookies: []string{"b"}, Ledger: 1, parts: [][]byte{[]byte("frame "), []byte("entry")}})
	if len(bk.data) != 1 {
		t.Fatalf("%d adds reached the bookie", len(bk.data))
	}
	aliases("bookie add", raw, bk.data[0], []byte("frame entry"))
}

// TestGoldenFrames pins the bytes of the hot path's messages and of a WAL
// data frame, whose payloads now travel as parts of their own: an append,
// a bookie add given as three parts, an error reply with data, an ack, and
// a frame of every operation type.
func TestGoldenFrames(t *testing.T) {
	frame := func(typ MessageType, id uint64, body any) string {
		t.Helper()
		var buf bytes.Buffer
		if err := writeFrame(&buf, typ, id, body); err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(buf.Bytes())
	}
	const seg0, seg1 = "sc/st/0.#epoch.0", "sc/st/1.#epoch.0"
	walFrame := segstore.MarshalFrame([]*segstore.Operation{
		{Type: segstore.OpCreate, Segment: seg1},
		{Type: segstore.OpAppend, Segment: seg0, Offset: 100, Data: []byte("event-one"), WriterID: "w-1", EventNum: 9, EventCount: 1},
		{Type: segstore.OpAppend, Segment: seg0, Offset: 109, Data: []byte("event-two!"), WriterID: "w-1", EventNum: 10, EventCount: 1},
		{Type: segstore.OpAppend, Segment: seg0, Offset: 119, WriterID: "w-2", EventNum: 1},
		{Type: segstore.OpSeal, Segment: seg1},
		{Type: segstore.OpTruncate, Segment: seg0, TruncateAt: 50},
		{Type: segstore.OpMergeSegment, Segment: seg0, Source: seg1, Offset: 119, Data: []byte("merged")},
		{Type: segstore.OpCheckpoint, Checkpoint: []byte(`{"segments":{}}`)},
		{Type: segstore.OpDelete, Segment: seg1},
	})
	for _, c := range []struct{ name, got, want string }{
		{"append", frame(MsgAppend, 42, &AppendReq{Segment: seg0, Data: []byte("event-one|event-two"), WriterID: "w-1", EventNum: 9, EventCount: 2, CondOffset: -1, Prev: 7}),
			"0000002d02000000000000002a1073632f73742f302e2365706f63682e3003772d311204010e136576656e742d6f6e657c6576656e742d74776f"},
		{"bookie add", frame(MsgBookieAdd, 5, &BookieReq{Bookies: []string{"bookie-0", "bookie-2"}, Ledger: 3, Entry: 9, parts: [][]byte{[]byte("frame-head"), []byte("|"), []byte("payload")}}),
			"000000282b00000000000000050408626f6f6b69652d3008626f6f6b69652d320612126672616d652d686561647c7061796c6f6164"},
		{"reply", frame(MsgReplyBin, 99, &Reply{Err: "boom", Code: 3, Offset: 1234, Data: []byte("abc"), EOS: true, Count: 3}),
			"0000000e11000000000000006304626f6f6d06a413010603616263"},
		{"ack", frame(MsgReplyBin, 100, &Reply{Offset: 77}),
			"0000000711000000000000006400009a01000000"},
		{"WAL data frame", hex.EncodeToString(walFrame),
			"09011073632f73742f312e2365706f63682e30021073632f73742f302e2365706f63682e30c80103772d311202096576656e742d6f6e65021073632f73742f302e2365706f63682e30da0103772d3114020a6576656e742d74776f21021073632f73742f302e2365706f63682e30ee0103772d32020000031073632f73742f312e2365706f63682e30041073632f73742f302e2365706f63682e3064071073632f73742f302e2365706f63682e30ee011073632f73742f312e2365706f63682e30066d657267656406000f7b227365676d656e7473223a7b7d7d051073632f73742f312e2365706f63682e30"},
	} {
		if c.got != c.want {
			t.Errorf("%s frame changed:\n got %s\nwant %s", c.name, c.got, c.want)
		}
	}
}
