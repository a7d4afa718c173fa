// Package segstore implements Pravega's data plane (§2.2, §4): segment
// stores host segment containers; every request that modifies a segment
// becomes an operation queued on its container; the container multiplexes
// all its segments' operations into a single WAL log via dynamically sized
// data frames (§4.1); a storage writer de-multiplexes acknowledged
// operations and moves them to long-term storage, truncating the WAL
// (§4.3); metadata checkpoints and WAL replay implement crash recovery, and
// fencing guarantees single ownership of a container (§4.4).
package segstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/pravega-go/pravega/internal/fields"
	"github.com/pravega-go/pravega/internal/wal"
)

// OpType enumerates WAL operation kinds.
type OpType uint8

// Operation kinds serialized into data frames.
const (
	OpCreate OpType = iota + 1
	OpAppend
	OpSeal
	OpTruncate
	OpDelete
	OpCheckpoint
	// OpMergeSegment atomically appends a sealed source segment's full
	// content to a target segment and deletes the source — the commit step
	// of stream transactions (§3.2). The source's bytes ride in Data so a
	// single WAL entry carries the whole state transition; replay re-applies
	// it idempotently.
	OpMergeSegment
)

// Operation is one durable state mutation. Every operation carries the
// container-assigned sequence number implicitly via its position in the
// frame stream.
type Operation struct {
	Type    OpType
	Segment string

	// Append fields.
	Offset     int64 // assigned by the container before WAL write
	Data       []byte
	WriterID   string
	EventNum   int64 // last event number in this append (writer dedup)
	EventCount int32
	// CondOffset, when >= 0, makes the append conditional: it fails unless
	// the segment length equals it (optimistic concurrency for the state
	// synchronizer, §3.3). Not serialized: the condition is evaluated at
	// sequencing time and the op is rejected before reaching the WAL.
	CondOffset int64
	// Prev, when nonzero, is the event number of the writer's previous
	// append on the segment, -1 for none (as WriterState reports; event
	// numbers start at 1). The append fails with ErrOutOfOrder unless that
	// is the writer's last sequenced event number, so a batch that overtook
	// a lost predecessor is not applied and both replay in order. Zero skips
	// the check. Not serialized, like CondOffset.
	Prev int64

	// Truncate field.
	TruncateAt int64

	// Checkpoint payload (serialized container metadata).
	Checkpoint []byte
	// cpCover carries an OpCheckpoint snapshot's coverage watermark (the
	// WAL address of the last frame applied before the snapshot was taken)
	// from Checkpoint to the applier. Like CondOffset it is never
	// serialized: it only bounds runtime WAL truncation, and a recovered
	// checkpoint deliberately has no coverage until the next live one.
	cpCover   wal.Address
	cpCoverOK bool

	// Source is the merged-from segment of an OpMergeSegment (its bytes are
	// carried in Data; Offset is the target offset they land at).
	Source string
}

const maxSegmentNameLen = 1024

// payload is the operation's trailing byte string that a frame carries by
// reference: an append's or a merge's data.
func (op *Operation) payload() []byte {
	if op.Type == OpAppend || op.Type == OpMergeSegment {
		return op.Data
	}
	return nil
}

// marshalHead serializes the operation into dst but for the bytes of its
// payload, whose length it does encode.
func (op *Operation) marshalHead(dst []byte) []byte {
	dst = append(dst, byte(op.Type))
	dst = fields.AppendBytes(dst, []byte(op.Segment))
	switch op.Type {
	case OpAppend:
		dst = binary.AppendVarint(dst, op.Offset)
		dst = fields.AppendBytes(dst, []byte(op.WriterID))
		dst = binary.AppendVarint(dst, op.EventNum)
		dst = binary.AppendVarint(dst, int64(op.EventCount))
		dst = binary.AppendUvarint(dst, uint64(len(op.Data)))
	case OpTruncate:
		dst = binary.AppendVarint(dst, op.TruncateAt)
	case OpCheckpoint:
		dst = fields.AppendBytes(dst, op.Checkpoint)
	case OpMergeSegment:
		dst = binary.AppendVarint(dst, op.Offset)
		dst = fields.AppendBytes(dst, []byte(op.Source))
		dst = binary.AppendUvarint(dst, uint64(len(op.Data)))
	case OpCreate, OpSeal, OpDelete:
		// Name only.
	}
	return dst
}

// unmarshalOperation decodes one operation. The decoded Data/Checkpoint
// fields alias src, which must stay immutable while the operation lives: a
// WAL entry read for replay is. prev, when non-nil, is the previously
// decoded operation of the same frame: its Segment/WriterID strings are
// reused when the bytes match, which collapses the per-op string
// allocations of a frame that multiplexes few segments and writers (the
// common case).
func unmarshalOperation(src []byte, prev *Operation) (Operation, []byte, error) {
	if prev == nil {
		prev = &Operation{}
	}
	f := fields.Reader{Src: src}
	op := Operation{Type: OpType(f.Byte()), CondOffset: -1}
	op.Segment = reuse(f.Bytes(), prev.Segment)
	switch op.Type {
	case OpAppend:
		op.Offset = f.Varint()
		op.WriterID = reuse(f.Bytes(), prev.WriterID)
		op.EventNum = f.Varint()
		op.EventCount = int32(f.Varint())
		op.Data = f.Bytes()
	case OpTruncate:
		op.TruncateAt = f.Varint()
	case OpCheckpoint:
		op.Checkpoint = f.Bytes()
	case OpMergeSegment:
		op.Offset = f.Varint()
		op.Source = f.Str()
		op.Data = f.Bytes()
	case OpCreate, OpSeal, OpDelete:
		// Name only.
	default:
		if f.Err == nil {
			return Operation{}, nil, fmt.Errorf("segstore: unknown op type %d", op.Type)
		}
	}
	if f.Err != nil {
		return Operation{}, nil, fmt.Errorf("segstore: operation: %w", f.Err)
	}
	if len(op.Segment) > maxSegmentNameLen || len(op.Source) > maxSegmentNameLen {
		return Operation{}, nil, fmt.Errorf("segstore: segment name too long (%d, %d)", len(op.Segment), len(op.Source))
	}
	return op, f.Src, nil
}

// reuse is b as a string: s itself when they match (string(b) == s compares
// without allocating).
func reuse(b []byte, s string) string {
	if string(b) == s {
		return s
	}
	return string(b)
}

// MarshalFrame packs operations into one data frame, in one buffer: the
// frame marshalFrame's parts join into.
func MarshalFrame(ops []*Operation) []byte { return bytes.Join(marshalFrame(ops), nil) }

// marshalFrame encodes operations as one data frame made of parts: the
// operations' headers between their payloads, which are the operations'
// own slices. The WAL writes the parts as one entry
// (wal.Log.AppendPartsAsync), so a payload is never copied into a frame.
// A header part stays valid if hdr grows into a new array: the old one
// keeps its bytes.
func marshalFrame(ops []*Operation) [][]byte {
	size := binary.MaxVarintLen64
	for _, op := range ops {
		size += 64 + len(op.Segment) + len(op.WriterID) + len(op.Checkpoint) + len(op.Source)
	}
	hdr := binary.AppendUvarint(make([]byte, 0, size), uint64(len(ops)))
	parts := make([][]byte, 0, 2*len(ops)+1)
	from := 0
	for _, op := range ops {
		hdr = op.marshalHead(hdr)
		if p := op.payload(); len(p) > 0 {
			parts = append(parts, hdr[from:len(hdr):len(hdr)], p)
			from = len(hdr)
		}
	}
	if from < len(hdr) {
		parts = append(parts, hdr[from:])
	}
	return parts
}

// UnmarshalFrame decodes a data frame back into operations, whose data
// aliases the frame.
func UnmarshalFrame(data []byte) ([]Operation, error) {
	return appendFrameOps(nil, data)
}

// appendFrameOps decodes a frame's operations into dst, reusing its backing
// array; the decoded Data/Checkpoint fields alias the frame buffer (see
// unmarshalOperation). The declared operation count is validated against
// the frame length before any allocation, so a corrupt header cannot force
// an oversized slice.
func appendFrameOps(dst []Operation, data []byte) ([]Operation, error) {
	n, sz := binary.Uvarint(data)
	if sz <= 0 {
		return nil, errors.New("segstore: bad frame header")
	}
	data = data[sz:]
	// Every serialized operation takes at least 2 bytes (type + name len).
	if n > uint64(len(data))/2 {
		return nil, fmt.Errorf("segstore: frame op count %d exceeds frame size %d", n, len(data))
	}
	if dst == nil {
		dst = make([]Operation, 0, n)
	}
	var prev *Operation
	for i := uint64(0); i < n; i++ {
		op, rest, err := unmarshalOperation(data, prev)
		if err != nil {
			return nil, fmt.Errorf("segstore: frame op %d: %w", i, err)
		}
		dst = append(dst, op)
		prev = &dst[len(dst)-1]
		data = rest
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("segstore: %d trailing frame bytes", len(data))
	}
	return dst, nil
}
