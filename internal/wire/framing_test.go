package wire

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/pravega-go/pravega/internal/bookkeeper"
	"github.com/pravega-go/pravega/internal/controller"
	"github.com/pravega-go/pravega/internal/keyspace"
	"github.com/pravega-go/pravega/internal/segment"
)

// marshalFlat is b's whole encoding, its payload copied in after the rest.
func marshalFlat(b binaryMarshaler) []byte {
	buf, _ := EncodeBody(nil, b)
	return buf
}

func TestMessageFramingRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	body := AppendReq{
		Segment: "a/b/0.#epoch.0", Data: []byte("payload"),
		WriterID: "w-1", EventNum: 9, EventCount: 2, CondOffset: -1,
	}
	if err := writeFrame(&buf, MsgAppend, 42, body); err != nil {
		t.Fatal(err)
	}
	typ, id, raw, err := readMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgAppend || id != 42 {
		t.Fatalf("type=%d id=%d", typ, id)
	}
	var got AppendReq
	if err := got.unmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	if got.Segment != body.Segment || !bytes.Equal(got.Data, body.Data) ||
		got.WriterID != "w-1" || got.EventNum != 9 || got.EventCount != 2 || got.CondOffset != -1 {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestReadReqBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	body := ReadReq{Segment: "s/x/3", Offset: 1 << 40, MaxBytes: 65536, WaitMS: 250}
	if err := writeFrame(&buf, MsgRead, 7, &body); err != nil {
		t.Fatal(err)
	}
	typ, id, raw, err := readMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgRead || id != 7 {
		t.Fatalf("type=%d id=%d", typ, id)
	}
	var got ReadReq
	if err := got.unmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	if got != body {
		t.Fatalf("round trip: %+v != %+v", got, body)
	}
}

// The encoding of a body must not depend on whether the caller handed
// Conn.Call a value or a pointer: both take the hand-written layout when the
// type has one, and the record encoding otherwise.
func TestBodyEncodingIgnoresPointerness(t *testing.T) {
	frame := func(body any) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := writeFrame(&buf, MsgBookieAdd, 5, body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	bk := BookieReq{Bookies: []string{"bookie-0", "bookie-2"}, Ledger: 3, Entry: 9, Data: []byte("entry")}
	if v, p := frame(bk), frame(&bk); !bytes.Equal(v, p) {
		t.Fatalf("BookieReq encodes as %x by value, %x by pointer", v, p)
	}
	var got BookieReq
	if err := decodeBody(frame(bk)[headerSize:], &got); err != nil || !reflect.DeepEqual(got, bk) {
		t.Fatalf("hand-written layout: %+v, %v", got, err)
	}
	sr := StreamReq{Scope: "s", Stream: "st", Segments: 2}
	if v, p := frame(sr), frame(&sr); !bytes.Equal(v, p) {
		t.Fatalf("StreamReq encodes as %q by value, %q by pointer", v, p)
	}
}

func TestBinReplyRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rep := Reply{Err: "", Offset: 1234, Data: []byte("abc"), EOS: true, Count: 3}
	if err := writeFrame(&buf, MsgReplyBin, 99, &rep); err != nil {
		t.Fatal(err)
	}
	typ, id, raw, err := readMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgReplyBin || id != 99 {
		t.Fatalf("type=%d id=%d", typ, id)
	}
	var got Reply
	if err := got.unmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	if got.Offset != 1234 || !bytes.Equal(got.Data, rep.Data) || !got.EOS || got.Count != 3 || got.Err != "" {
		t.Fatalf("round trip: %+v", got)
	}
	// Error replies carry the message through.
	buf.Reset()
	if err := writeFrame(&buf, MsgReplyBin, 1, &Reply{Err: "boom"}); err != nil {
		t.Fatal(err)
	}
	_, _, raw, err = readMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.unmarshalBinary(raw); err != nil || got.Err != "boom" {
		t.Fatalf("err reply: %+v, %v", got, err)
	}
	// A structured result rides in Data, through the server's record and the
	// client's decode.
	want := []controller.SegmentWithRange{{
		ID:       segment.ID{Scope: "s", Stream: "st", Number: 4},
		KeyRange: keyspace.Range{Low: 0.25, High: 0.5},
	}}
	rep = record(want, len(want), nil)
	buf.Reset()
	if err := writeFrame(&buf, MsgReplyBin, 2, &rep); err != nil {
		t.Fatal(err)
	}
	_, _, raw, err = readMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.unmarshalBinary(raw); err != nil || got.Count != 1 {
		t.Fatalf("record reply: %+v, %v", got, err)
	}
	segs, err := decode[[]controller.SegmentWithRange](got, nil, "segments")
	if err != nil || !reflect.DeepEqual(segs, want) {
		t.Fatalf("record round trip: %+v, %v; want %+v", segs, err, want)
	}
	// A bookie add's reply carries one outcome per named bookie, each
	// keeping its sentinel.
	rep = record(bookieOutcomes{nil, fmt.Errorf("b1: %w", bookkeeper.ErrFenced)}, 2, nil)
	buf.Reset()
	if err := writeFrame(&buf, MsgReplyBin, 3, &rep); err != nil {
		t.Fatal(err)
	}
	if _, _, raw, err = readMessage(&buf); err != nil {
		t.Fatal(err)
	}
	var outs bookieOutcomes
	if err := got.unmarshalBinary(raw); err != nil || decodeBody(got.Data, &outs) != nil {
		t.Fatalf("outcome reply: %+v, %v", got, err)
	}
	if len(outs) != 2 || outs[0] != nil || !errors.Is(outs[1], bookkeeper.ErrFenced) || outs[1].Error() != "b1: bookkeeper: ledger is fenced" {
		t.Fatalf("outcome round trip: %v", outs)
	}
}

func TestBinaryDecodersRejectTruncated(t *testing.T) {
	req := AppendReq{Segment: "seg", Data: []byte("0123456789"), CondOffset: -1}
	full := marshalFlat(req)
	for i := 0; i < len(full); i++ {
		if err := new(AppendReq).unmarshalBinary(full[:i]); err == nil {
			t.Fatalf("truncated append body (%d/%d bytes) accepted", i, len(full))
		}
	}
	// Trailing garbage must also be rejected.
	if err := new(AppendReq).unmarshalBinary(append(full, 0xFF)); err == nil {
		t.Fatal("append body with trailing bytes accepted")
	}
	rd := ReadReq{Segment: "seg", Offset: 5, MaxBytes: 10, WaitMS: 1}
	rbody := marshalFlat(rd)
	for i := 0; i < len(rbody); i++ {
		if err := new(ReadReq).unmarshalBinary(rbody[:i]); err == nil {
			t.Fatalf("truncated read body (%d/%d bytes) accepted", i, len(rbody))
		}
	}
	bk := BookieReq{Bookies: []string{"b0", "b1", "b2"}, Ledger: 1, Entry: 2, Data: []byte("x")}
	bbody := marshalFlat(bk)
	for i := 0; i < len(bbody); i++ {
		if err := new(BookieReq).unmarshalBinary(bbody[:i]); err == nil {
			t.Fatalf("truncated bookie body (%d/%d bytes) accepted", i, len(bbody))
		}
	}
	if err := new(BookieReq).unmarshalBinary(append(bbody, 0)); err == nil {
		t.Fatal("bookie body with trailing bytes accepted")
	}
	outs := bookieOutcomes{nil, bookkeeper.ErrFenced, errors.New("disk")}
	obody := marshalFlat(outs)
	for i := 0; i < len(obody); i++ {
		if err := new(bookieOutcomes).unmarshalBinary(obody[:i]); err == nil {
			t.Fatalf("truncated bookie outcomes (%d/%d bytes) accepted", i, len(obody))
		}
	}
	if err := new(bookieOutcomes).unmarshalBinary(append(obody, 0)); err == nil {
		t.Fatal("bookie outcomes with trailing bytes accepted")
	}
}

func TestMessageFramingMultiple(t *testing.T) {
	var buf bytes.Buffer
	for i := uint64(1); i <= 5; i++ {
		if err := writeFrame(&buf, MsgReplyBin, i, &Reply{Offset: int64(i * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 5; i++ {
		typ, id, raw, err := readMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != MsgReplyBin || id != i {
			t.Fatalf("msg %d: type=%d id=%d", i, typ, id)
		}
		var rep Reply
		if err := rep.unmarshalBinary(raw); err != nil {
			t.Fatal(err)
		}
		if rep.Offset != int64(i*10) {
			t.Fatalf("msg %d: offset %d", i, rep.Offset)
		}
	}
}

func TestReadMessageRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	// Forge a header claiming a body beyond maxBody.
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF, byte(MsgAppend), 0, 0, 0, 0, 0, 0, 0, 1}
	buf.Write(hdr)
	if _, _, _, err := readMessage(&buf); err == nil {
		t.Fatal("oversized body accepted")
	}
}

func TestWriteMessageRejectsOversized(t *testing.T) {
	var buf bytes.Buffer
	big := AppendReq{Segment: "s", Data: make([]byte, maxBody)}
	if err := writeFrame(&buf, MsgAppend, 1, big); err == nil {
		t.Fatal("oversized message accepted")
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes of a rejected message reached the connection", buf.Len())
	}
}

func TestReadMessageTruncatedInput(t *testing.T) {
	// Header promising more bytes than present.
	var buf bytes.Buffer
	if err := writeFrame(&buf, MsgReplyBin, 7, &Reply{Offset: 1}); err != nil {
		t.Fatal(err)
	}
	short := buf.Bytes()[:buf.Len()-3]
	if _, _, _, err := readMessage(bytes.NewReader(short)); err == nil {
		t.Fatal("truncated message accepted")
	}
}
