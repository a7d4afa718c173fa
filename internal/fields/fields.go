// Package fields is the field scheme of the hand-written binary layouts:
// the segment store's WAL data frames and the wire protocol's hot-path
// bodies. A field is a varint, one byte, or a byte string behind its
// uvarint length.
package fields

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated reports a field that runs past the end of its input.
var ErrTruncated = errors.New("truncated field")

// AppendBytes appends b behind its uvarint length.
func AppendBytes(dst, b []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
}

// Reader walks a layout field by field. The first malformed field sticks —
// it empties Src, so every later read fails the same way and returns a zero
// value — which lets a decoder be a straight list of fields closed by one
// check.
type Reader struct {
	Src []byte
	Err error
}

// Fail marks the input malformed from here on.
func (r *Reader) Fail() { r.Src, r.Err = nil, ErrTruncated }

// Bytes reads a length-prefixed field. The result aliases Src, and is nil
// when the field is empty.
func (r *Reader) Bytes() []byte {
	n, sz := binary.Uvarint(r.Src)
	if sz <= 0 || n > uint64(len(r.Src)-sz) {
		r.Fail()
		return nil
	}
	b := r.Src[sz : sz+int(n)]
	r.Src = r.Src[sz+int(n):]
	if n == 0 {
		return nil
	}
	return b
}

// Str reads a length-prefixed field as a string.
func (r *Reader) Str() string { return string(r.Bytes()) }

// Varint reads a varint.
func (r *Reader) Varint() int64 {
	v, sz := binary.Varint(r.Src)
	if sz <= 0 {
		r.Fail()
		return 0
	}
	r.Src = r.Src[sz:]
	return v
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.Src) == 0 {
		r.Fail()
		return 0
	}
	b := r.Src[0]
	r.Src = r.Src[1:]
	return b
}

// Done reports the first malformed field of a layout named what, or bytes
// left after its last field.
func (r *Reader) Done(what string) error {
	if r.Err != nil {
		return fmt.Errorf("%s: %w", what, r.Err)
	}
	if len(r.Src) != 0 {
		return fmt.Errorf("%s: %d trailing bytes", what, len(r.Src))
	}
	return nil
}
