package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"github.com/pravega-go/pravega/internal/fields"
)

// One rule for bodies. A body with a hand-written layout encodes itself
// (marshalBinary / unmarshalBinary below); anything else is a record and
// goes through encoding/json. encodeBody and decodeBody are the only places
// that know, and they choose by the body's type — never by message type, and
// alike for T and *T.

// binaryMarshaler is a hand-written layout. marshalBinary appends the body
// to dst, except the bytes of a trailing payload: it appends those, by
// reference, to payload, and writeFrame sends them from the caller's own
// slices after the rest.
type binaryMarshaler interface {
	marshalBinary(dst []byte, payload [][]byte) ([]byte, [][]byte)
}

type binaryUnmarshaler interface{ unmarshalBinary(src []byte) error }

// encodeBody appends body's encoding to dst, but for a hand-written
// layout's payload, which it appends to payload (see binaryMarshaler).
func encodeBody(dst []byte, payload [][]byte, body any) ([]byte, [][]byte, error) {
	if b, ok := body.(binaryMarshaler); ok {
		dst, payload = b.marshalBinary(dst, payload)
		return dst, payload, nil
	}
	data, err := json.Marshal(body)
	return append(dst, data...), payload, err
}

// decodeBody decodes src into the body v points to. src is the message's
// own buffer: a decoded payload aliases it.
func decodeBody(src []byte, v any) error {
	if b, ok := v.(binaryUnmarshaler); ok {
		return b.unmarshalBinary(src)
	}
	return json.Unmarshal(src, v)
}

// appendPayload encodes a trailing payload made of parts: its length into
// dst, its bytes by reference into payload.
func appendPayload(dst []byte, payload [][]byte, parts ...[]byte) ([]byte, [][]byte) {
	n := 0
	for _, p := range parts {
		if len(p) > 0 {
			n += len(p)
			payload = append(payload, p)
		}
	}
	return binary.AppendUvarint(dst, uint64(n)), payload
}

func (r AppendReq) marshalBinary(dst []byte, payload [][]byte) ([]byte, [][]byte) {
	dst = fields.AppendBytes(dst, []byte(r.Segment))
	dst = fields.AppendBytes(dst, []byte(r.WriterID))
	dst = binary.AppendVarint(dst, r.EventNum)
	dst = binary.AppendVarint(dst, int64(r.EventCount))
	dst = binary.AppendVarint(dst, r.CondOffset)
	dst = binary.AppendVarint(dst, r.Prev)
	return appendPayload(dst, payload, r.Data)
}

func (r *AppendReq) unmarshalBinary(src []byte) error {
	f := fields.Reader{Src: src}
	r.Segment = f.Str()
	r.WriterID = f.Str()
	r.EventNum = f.Varint()
	r.EventCount = int32(f.Varint())
	r.CondOffset = f.Varint()
	r.Prev = f.Varint()
	r.Data = f.Bytes()
	return f.Done("wire: append")
}

func (r ReadReq) marshalBinary(dst []byte, payload [][]byte) ([]byte, [][]byte) {
	dst = fields.AppendBytes(dst, []byte(r.Segment))
	dst = binary.AppendVarint(dst, r.Offset)
	dst = binary.AppendVarint(dst, int64(r.MaxBytes))
	return binary.AppendVarint(dst, r.WaitMS), payload
}

func (r *ReadReq) unmarshalBinary(src []byte) error {
	f := fields.Reader{Src: src}
	r.Segment = f.Str()
	r.Offset = f.Varint()
	r.MaxBytes = int(f.Varint())
	r.WaitMS = f.Varint()
	return f.Done("wire: read")
}

func (r BookieReq) marshalBinary(dst []byte, payload [][]byte) ([]byte, [][]byte) {
	dst = binary.AppendVarint(dst, int64(len(r.Bookies)))
	for _, b := range r.Bookies {
		dst = fields.AppendBytes(dst, []byte(b))
	}
	dst = binary.AppendVarint(dst, r.Ledger)
	dst = binary.AppendVarint(dst, r.Entry)
	if r.parts != nil {
		return appendPayload(dst, payload, r.parts...)
	}
	return appendPayload(dst, payload, r.Data)
}

func (r *BookieReq) unmarshalBinary(src []byte) error {
	f := fields.Reader{Src: src}
	n := f.Varint()
	if n < 1 {
		f.Fail() // every bookie request names at least one
	}
	for ; n > 0 && f.Err == nil; n-- {
		r.Bookies = append(r.Bookies, f.Str())
	}
	r.Ledger = f.Varint()
	r.Entry = f.Varint()
	r.Data = f.Bytes()
	return f.Done("wire: bookie")
}

// bookieOutcomes is a MsgBookieAdd reply's Data: one error per bookie the
// request named, in its order, nil for a durable add. Each crosses as a
// Reply's Err and Code, so errors.Is still finds its sentinel.
type bookieOutcomes []error

func (o bookieOutcomes) marshalBinary(dst []byte, payload [][]byte) ([]byte, [][]byte) {
	dst = binary.AppendVarint(dst, int64(len(o)))
	for _, err := range o {
		rep := errReply(err, Reply{})
		dst = binary.AppendVarint(fields.AppendBytes(dst, []byte(rep.Err)), int64(rep.Code))
	}
	return dst, payload
}

func (o *bookieOutcomes) unmarshalBinary(src []byte) error {
	f := fields.Reader{Src: src}
	for n := f.Varint(); n > 0 && f.Err == nil; n-- {
		*o = append(*o, ReplyError(Reply{Err: f.Str(), Code: int(f.Varint())}))
	}
	return f.Done("wire: bookie outcomes")
}

func (r Reply) marshalBinary(dst []byte, payload [][]byte) ([]byte, [][]byte) {
	dst = fields.AppendBytes(dst, []byte(r.Err))
	dst = binary.AppendVarint(dst, int64(r.Code))
	dst = binary.AppendVarint(dst, r.Offset)
	var eos byte
	if r.EOS {
		eos = 1
	}
	dst = append(dst, eos)
	dst = binary.AppendVarint(dst, int64(r.Count))
	return appendPayload(dst, payload, r.Data)
}

func (r *Reply) unmarshalBinary(src []byte) error {
	f := fields.Reader{Src: src}
	r.Err = f.Str()
	r.Code = int(f.Varint())
	r.Offset = f.Varint()
	r.EOS = f.Byte() == 1
	r.Count = int(f.Varint())
	r.Data = f.Bytes()
	return f.Done("wire: reply")
}

// encBuf is one message's encoding on its way to a connection: the frame
// header and body in buf, the body's payload by reference in payload.
type encBuf struct {
	buf     []byte
	payload [][]byte
}

// encPool recycles encode buffers: one holds a framed message only until it
// reaches the connection's bufio.Writer, so the pool keeps the steady-state
// encode path allocation-free.
var encPool = sync.Pool{New: func() any { return &encBuf{buf: make([]byte, 0, 512)} }}

// writeFrame encodes one message — a request, or the reply envelope — behind
// its frame header and writes it: the head from the encode buffer, then a
// payload straight from the caller's slices, which it does not keep.
func writeFrame(w io.Writer, t MessageType, reqID uint64, body any) error {
	e := encPool.Get().(*encBuf)
	var hdr [headerSize]byte
	buf, payload, err := encodeBody(append(e.buf[:0], hdr[:]...), e.payload[:0], body)
	n := len(buf) - headerSize
	for _, p := range payload {
		n += len(p)
	}
	if err == nil && n > maxBody {
		err = fmt.Errorf("wire: body too large (%d bytes)", n)
	}
	if err == nil {
		binary.BigEndian.PutUint32(buf[0:4], uint32(n))
		buf[4] = byte(t)
		binary.BigEndian.PutUint64(buf[5:13], reqID)
		_, err = w.Write(buf)
		for _, p := range payload {
			if err == nil {
				_, err = w.Write(p)
			}
		}
	}
	clear(payload) // the pool must not pin a caller's bytes
	e.buf, e.payload = buf, payload[:0]
	encPool.Put(e)
	return err
}
