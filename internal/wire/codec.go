package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
)

// One rule for bodies. A body with a hand-written layout encodes itself
// (marshalBinary / unmarshalBinary below); anything else is a record and
// goes through encoding/json. encodeBody and decodeBody are the only places
// that know, and they choose by the body's type — never by message type, and
// alike for T and *T.

type binaryMarshaler interface{ marshalBinary(dst []byte) []byte }

type binaryUnmarshaler interface{ unmarshalBinary(src []byte) error }

// encodeBody appends body's encoding to dst.
func encodeBody(dst []byte, body any) ([]byte, error) {
	if b, ok := body.(binaryMarshaler); ok {
		return b.marshalBinary(dst), nil
	}
	data, err := json.Marshal(body)
	return append(dst, data...), err
}

// decodeBody decodes src into the body v points to. src may be a
// connection's read scratch: decoders copy out whatever they keep.
func decodeBody(src []byte, v any) error {
	if b, ok := v.(binaryUnmarshaler); ok {
		return b.unmarshalBinary(src)
	}
	return json.Unmarshal(src, v)
}

var errTruncatedBody = errors.New("wire: truncated body")

func appendUvarintBytes(dst []byte, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// fieldReader walks a hand-written layout field by field. The first
// malformed field sticks — it empties src, so every later read fails the
// same way and returns a zero value — which lets a decoder be a straight
// list of fields closed by one done check.
type fieldReader struct {
	src []byte
	err error
}

func (r *fieldReader) fail() { r.src, r.err = nil, errTruncatedBody }

// bytes reads a uvarint-length-prefixed field; the result aliases src.
func (r *fieldReader) bytes() []byte {
	n, sz := binary.Uvarint(r.src)
	if sz <= 0 || n > uint64(len(r.src)-sz) {
		r.fail()
		return nil
	}
	b := r.src[sz : sz+int(n)]
	r.src = r.src[sz+int(n):]
	return b
}

// copied is bytes copied out of src (nil when empty): payloads outlive the
// connection's read scratch — in the container's cache and tiering queue,
// the bookie's journal, the hands of a reply's caller.
func (r *fieldReader) copied() []byte {
	if b := r.bytes(); len(b) > 0 {
		return append([]byte(nil), b...)
	}
	return nil
}

func (r *fieldReader) str() string { return string(r.bytes()) }

func (r *fieldReader) varint() int64 {
	v, sz := binary.Varint(r.src)
	if sz <= 0 {
		r.fail()
		return 0
	}
	r.src = r.src[sz:]
	return v
}

func (r *fieldReader) bool() bool {
	if len(r.src) == 0 {
		r.fail()
		return false
	}
	b := r.src[0] == 1
	r.src = r.src[1:]
	return b
}

// done reports the first malformed field, or bytes left after the last one.
func (r *fieldReader) done(what string) error {
	if r.err == nil && len(r.src) != 0 {
		return fmt.Errorf("wire: %d trailing %s bytes", len(r.src), what)
	}
	return r.err
}

func (r AppendReq) marshalBinary(dst []byte) []byte {
	dst = appendUvarintBytes(dst, []byte(r.Segment))
	dst = appendUvarintBytes(dst, []byte(r.WriterID))
	dst = binary.AppendVarint(dst, r.EventNum)
	dst = binary.AppendVarint(dst, int64(r.EventCount))
	dst = binary.AppendVarint(dst, r.CondOffset)
	dst = binary.AppendVarint(dst, r.Prev)
	return appendUvarintBytes(dst, r.Data)
}

func (r *AppendReq) unmarshalBinary(src []byte) error {
	f := fieldReader{src: src}
	r.Segment = f.str()
	r.WriterID = f.str()
	r.EventNum = f.varint()
	r.EventCount = int32(f.varint())
	r.CondOffset = f.varint()
	r.Prev = f.varint()
	r.Data = f.copied()
	return f.done("append")
}

func (r ReadReq) marshalBinary(dst []byte) []byte {
	dst = appendUvarintBytes(dst, []byte(r.Segment))
	dst = binary.AppendVarint(dst, r.Offset)
	dst = binary.AppendVarint(dst, int64(r.MaxBytes))
	return binary.AppendVarint(dst, r.WaitMS)
}

func (r *ReadReq) unmarshalBinary(src []byte) error {
	f := fieldReader{src: src}
	r.Segment = f.str()
	r.Offset = f.varint()
	r.MaxBytes = int(f.varint())
	r.WaitMS = f.varint()
	return f.done("read")
}

func (r BookieReq) marshalBinary(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(len(r.Bookies)))
	for _, b := range r.Bookies {
		dst = appendUvarintBytes(dst, []byte(b))
	}
	dst = binary.AppendVarint(dst, r.Ledger)
	dst = binary.AppendVarint(dst, r.Entry)
	return appendUvarintBytes(dst, r.Data)
}

func (r *BookieReq) unmarshalBinary(src []byte) error {
	f := fieldReader{src: src}
	n := f.varint()
	if n < 1 {
		f.fail() // every bookie request names at least one
	}
	for ; n > 0 && f.err == nil; n-- {
		r.Bookies = append(r.Bookies, f.str())
	}
	r.Ledger = f.varint()
	r.Entry = f.varint()
	r.Data = f.copied()
	return f.done("bookie")
}

// bookieOutcomes is a MsgBookieAdd reply's Data: one error per bookie the
// request named, in its order, nil for a durable add. Each crosses as a
// Reply's Err and Code, so errors.Is still finds its sentinel.
type bookieOutcomes []error

func (o bookieOutcomes) marshalBinary(dst []byte) []byte {
	dst = binary.AppendVarint(dst, int64(len(o)))
	for _, err := range o {
		rep := errReply(err, Reply{})
		dst = binary.AppendVarint(appendUvarintBytes(dst, []byte(rep.Err)), int64(rep.Code))
	}
	return dst
}

func (o *bookieOutcomes) unmarshalBinary(src []byte) error {
	f := fieldReader{src: src}
	for n := f.varint(); n > 0 && f.err == nil; n-- {
		*o = append(*o, ReplyError(Reply{Err: f.str(), Code: int(f.varint())}))
	}
	return f.done("bookie outcomes")
}

func (r Reply) marshalBinary(dst []byte) []byte {
	dst = appendUvarintBytes(dst, []byte(r.Err))
	dst = binary.AppendVarint(dst, int64(r.Code))
	dst = binary.AppendVarint(dst, r.Offset)
	var eos byte
	if r.EOS {
		eos = 1
	}
	dst = append(dst, eos)
	dst = binary.AppendVarint(dst, int64(r.Count))
	return appendUvarintBytes(dst, r.Data)
}

func (r *Reply) unmarshalBinary(src []byte) error {
	f := fieldReader{src: src}
	r.Err = f.str()
	r.Code = int(f.varint())
	r.Offset = f.varint()
	r.EOS = f.bool()
	r.Count = int(f.varint())
	r.Data = f.copied()
	return f.done("reply")
}

// encPool recycles message encode buffers: a buffer holds one framed
// message (header + body) only until it reaches the connection's
// bufio.Writer, so the pool keeps the steady-state encode path
// allocation-free.
var encPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// writeFrame encodes one message — a request, or the reply envelope — behind
// its frame header and writes it.
func writeFrame(w io.Writer, t MessageType, reqID uint64, body any) error {
	bp := encPool.Get().(*[]byte)
	var hdr [headerSize]byte
	buf, err := encodeBody(append((*bp)[:0], hdr[:]...), body)
	if n := len(buf) - headerSize; err == nil && n > maxBody {
		err = fmt.Errorf("wire: body too large (%d bytes)", n)
	}
	if err == nil {
		binary.BigEndian.PutUint32(buf[0:4], uint32(len(buf)-headerSize))
		buf[4] = byte(t)
		binary.BigEndian.PutUint64(buf[5:13], reqID)
		_, err = w.Write(buf)
	}
	*bp = buf
	encPool.Put(bp)
	return err
}
