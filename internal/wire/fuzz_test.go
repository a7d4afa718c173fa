package wire

import (
	"bytes"
	"testing"

	"github.com/pravega-go/pravega/internal/bookkeeper"
)

// FuzzAppendReqCodec round-trips arbitrary append requests through the
// path a connection runs — writeFrame, then readMessage and the decoder —
// and feeds every truncation of the body back to the decoder, which must
// reject it without panicking.
func FuzzAppendReqCodec(f *testing.F) {
	f.Add("a/b/0.#epoch.0", []byte("payload"), "w-1", int64(9), int32(2), int64(-1))
	f.Add("", []byte{}, "", int64(0), int32(0), int64(0))
	f.Add("s", []byte{0xFF}, "writer", int64(-1), int32(1), int64(1<<40))
	f.Fuzz(func(t *testing.T, seg string, data []byte, wid string, num int64, count int32, cond int64) {
		req := AppendReq{
			Segment: seg, Data: data, WriterID: wid,
			EventNum: num, EventCount: count, CondOffset: cond, Prev: num - int64(count),
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, MsgAppend, 42, &req); err != nil {
			t.Skip() // oversized payload; writer rejects by design
		}
		typ, id, body, err := readMessage(&buf)
		if err != nil || typ != MsgAppend || id != 42 {
			t.Fatalf("reading own frame: type=%d id=%d %v", typ, id, err)
		}
		var got AppendReq
		if err := got.unmarshalBinary(body); err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if got.Segment != req.Segment || !bytes.Equal(got.Data, req.Data) ||
			got.WriterID != req.WriterID || got.EventNum != req.EventNum ||
			got.EventCount != req.EventCount || got.CondOffset != req.CondOffset || got.Prev != req.Prev {
			t.Fatalf("round trip: %+v != %+v", got, req)
		}
		for i := 0; i < len(body); i++ {
			if err := new(AppendReq).unmarshalBinary(body[:i]); err == nil {
				t.Fatalf("truncated body (%d/%d bytes) accepted", i, len(body))
			}
		}
	})
}

// FuzzReadReqCodec round-trips arbitrary read requests and rejects
// truncations.
func FuzzReadReqCodec(f *testing.F) {
	f.Add("s/x/3", int64(1<<40), int32(65536), int32(250))
	f.Add("", int64(0), int32(0), int32(0))
	f.Fuzz(func(t *testing.T, seg string, off int64, maxBytes, waitMS int32) {
		req := ReadReq{Segment: seg, Offset: off, MaxBytes: int(maxBytes), WaitMS: int64(waitMS)}
		body := marshalFlat(req)
		var got ReadReq
		if err := got.unmarshalBinary(body); err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if got != req {
			t.Fatalf("round trip: %+v != %+v", got, req)
		}
		for i := 0; i < len(body); i++ {
			if err := new(ReadReq).unmarshalBinary(body[:i]); err == nil {
				t.Fatalf("truncated body (%d/%d bytes) accepted", i, len(body))
			}
		}
	})
}

// FuzzReplyCodec round-trips arbitrary replies — including the error code
// field the client maps back to sentinel errors, and a record in Data, whose
// bytes the envelope must carry untouched — and rejects truncations.
func FuzzReplyCodec(f *testing.F) {
	f.Add("", int32(0), int64(1234), []byte("abc"), true, int32(3))
	f.Add("", int32(0), int64(0), record(CoordRep{Data: []byte{0, 0xFF}, Version: 7, Children: []string{"a"}}, 1, nil).Data, false, int32(1))
	f.Add("segment sealed", int32(codeSegmentSealed), int64(0), []byte{}, false, int32(0))
	f.Add("disconnected", int32(codeDisconnected), int64(-1), []byte{0}, true, int32(-5))
	f.Add("", int32(0), int64(0), record(bookieOutcomes{nil, bookkeeper.ErrFenced}, 2, nil).Data, false, int32(2))
	f.Fuzz(func(t *testing.T, errMsg string, code int32, off int64, data []byte, eos bool, count int32) {
		rep := Reply{Err: errMsg, Code: int(code), Offset: off, Data: data, EOS: eos, Count: int(count)}
		var buf bytes.Buffer
		if err := writeFrame(&buf, MsgReplyBin, 7, &rep); err != nil {
			t.Skip() // oversized payload; writer rejects by design
		}
		typ, id, raw, err := readMessage(&buf)
		if err != nil {
			t.Fatalf("reading own frame: %v", err)
		}
		if typ != MsgReplyBin || id != 7 {
			t.Fatalf("frame header: type=%d id=%d", typ, id)
		}
		var got Reply
		if err := got.unmarshalBinary(raw); err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if got.Err != rep.Err || got.Code != rep.Code || got.Offset != rep.Offset ||
			!bytes.Equal(got.Data, rep.Data) || got.EOS != rep.EOS || got.Count != rep.Count {
			t.Fatalf("round trip: %+v != %+v", got, rep)
		}
		for i := 0; i < len(raw); i++ {
			if err := new(Reply).unmarshalBinary(raw[:i]); err == nil {
				t.Fatalf("truncated reply (%d/%d bytes) accepted", i, len(raw))
			}
		}
	})
}

// FuzzReadMessage throws arbitrary byte streams at the frame reader: it must
// either produce a frame or an error, never panic or over-read, and a frame
// it reads is written back by writeFrame as the very bytes it consumed.
func FuzzReadMessage(f *testing.F) {
	var seed bytes.Buffer
	_ = writeFrame(&seed, MsgAppend, 42, AppendReq{Segment: "s", Data: []byte("d"), CondOffset: -1})
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, byte(MsgAppend), 0, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, stream []byte) {
		r := bytes.NewReader(stream)
		for {
			at := len(stream) - r.Len()
			typ, id, body, err := readMessage(r)
			if err != nil {
				return
			}
			var again bytes.Buffer
			if err := writeFrame(&again, typ, id, rawBody(body)); err != nil {
				t.Fatalf("re-writing a frame read: %v", err)
			}
			if consumed := stream[at : len(stream)-r.Len()]; !bytes.Equal(again.Bytes(), consumed) {
				t.Fatalf("frame re-written as %x, read from %x", again.Bytes(), consumed)
			}
		}
	})
}
