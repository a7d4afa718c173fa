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
	"encoding/binary"
	"errors"
	"fmt"

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

// appendUvarintBytes appends a length-prefixed byte string.
func appendUvarintBytes(dst []byte, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func consumeUvarintBytes(src []byte) ([]byte, []byte, error) {
	n, sz := binary.Uvarint(src)
	if sz <= 0 || n > uint64(len(src)-sz) {
		return nil, nil, errors.New("segstore: truncated field")
	}
	return src[sz : sz+int(n)], src[sz+int(n):], nil
}

// Marshal serializes the operation into dst.
func (op *Operation) Marshal(dst []byte) []byte {
	dst = append(dst, byte(op.Type))
	dst = appendUvarintBytes(dst, []byte(op.Segment))
	switch op.Type {
	case OpAppend:
		dst = binary.AppendVarint(dst, op.Offset)
		dst = appendUvarintBytes(dst, []byte(op.WriterID))
		dst = binary.AppendVarint(dst, op.EventNum)
		dst = binary.AppendVarint(dst, int64(op.EventCount))
		dst = appendUvarintBytes(dst, op.Data)
	case OpTruncate:
		dst = binary.AppendVarint(dst, op.TruncateAt)
	case OpCheckpoint:
		dst = appendUvarintBytes(dst, op.Checkpoint)
	case OpMergeSegment:
		dst = binary.AppendVarint(dst, op.Offset)
		dst = appendUvarintBytes(dst, []byte(op.Source))
		dst = appendUvarintBytes(dst, op.Data)
	case OpCreate, OpSeal, OpDelete:
		// Name only.
	}
	return dst
}

// unmarshalOperation decodes one operation. With alias=true the decoded
// Data/Checkpoint fields alias src — valid only while src is immutable and
// outlives the operation, as during recovery replay where src is a freshly
// read WAL entry. prev, when non-nil, is the previously decoded operation
// of the same frame: its Segment/WriterID strings are reused when the bytes
// match, which collapses the per-op string allocations of a frame that
// multiplexes few segments and writers (the common case).
func unmarshalOperation(src []byte, alias bool, prev *Operation) (Operation, []byte, error) {
	if len(src) < 1 {
		return Operation{}, nil, errors.New("segstore: empty operation")
	}
	op := Operation{Type: OpType(src[0]), CondOffset: -1}
	src = src[1:]
	nameB, src, err := consumeUvarintBytes(src)
	if err != nil {
		return Operation{}, nil, err
	}
	if len(nameB) > maxSegmentNameLen {
		return Operation{}, nil, fmt.Errorf("segstore: segment name too long (%d)", len(nameB))
	}
	// string(b) == s compares without allocating.
	if prev != nil && string(nameB) == prev.Segment {
		op.Segment = prev.Segment
	} else {
		op.Segment = string(nameB)
	}
	switch op.Type {
	case OpAppend:
		var sz int
		op.Offset, sz = binary.Varint(src)
		if sz <= 0 {
			return Operation{}, nil, errors.New("segstore: bad offset")
		}
		src = src[sz:]
		wid, rest, err := consumeUvarintBytes(src)
		if err != nil {
			return Operation{}, nil, err
		}
		if prev != nil && string(wid) == prev.WriterID {
			op.WriterID = prev.WriterID
		} else {
			op.WriterID = string(wid)
		}
		src = rest
		op.EventNum, sz = binary.Varint(src)
		if sz <= 0 {
			return Operation{}, nil, errors.New("segstore: bad event num")
		}
		src = src[sz:]
		cnt, sz2 := binary.Varint(src)
		if sz2 <= 0 {
			return Operation{}, nil, errors.New("segstore: bad event count")
		}
		op.EventCount = int32(cnt)
		src = src[sz2:]
		data, rest2, err := consumeUvarintBytes(src)
		if err != nil {
			return Operation{}, nil, err
		}
		if alias {
			op.Data = data
		} else {
			op.Data = append([]byte(nil), data...)
		}
		src = rest2
	case OpTruncate:
		var sz int
		op.TruncateAt, sz = binary.Varint(src)
		if sz <= 0 {
			return Operation{}, nil, errors.New("segstore: bad truncate offset")
		}
		src = src[sz:]
	case OpCheckpoint:
		cp, rest, err := consumeUvarintBytes(src)
		if err != nil {
			return Operation{}, nil, err
		}
		if alias {
			op.Checkpoint = cp
		} else {
			op.Checkpoint = append([]byte(nil), cp...)
		}
		src = rest
	case OpMergeSegment:
		var sz int
		op.Offset, sz = binary.Varint(src)
		if sz <= 0 {
			return Operation{}, nil, errors.New("segstore: bad merge offset")
		}
		src = src[sz:]
		srcName, rest, err := consumeUvarintBytes(src)
		if err != nil {
			return Operation{}, nil, err
		}
		if len(srcName) > maxSegmentNameLen {
			return Operation{}, nil, fmt.Errorf("segstore: merge source name too long (%d)", len(srcName))
		}
		op.Source = string(srcName)
		src = rest
		data, rest2, err := consumeUvarintBytes(src)
		if err != nil {
			return Operation{}, nil, err
		}
		if alias {
			op.Data = data
		} else {
			op.Data = append([]byte(nil), data...)
		}
		src = rest2
	case OpCreate, OpSeal, OpDelete:
		// Name only.
	default:
		return Operation{}, nil, fmt.Errorf("segstore: unknown op type %d", op.Type)
	}
	return op, src, nil
}

// MarshalFrame packs operations into one data frame, in one allocation.
func MarshalFrame(ops []*Operation) []byte {
	var size int
	for _, op := range ops {
		size += 64 + len(op.Data) + len(op.Segment) + len(op.Checkpoint) + len(op.Source)
	}
	buf := binary.AppendUvarint(make([]byte, 0, size), uint64(len(ops)))
	for _, op := range ops {
		buf = op.Marshal(buf)
	}
	return buf
}

// UnmarshalFrame decodes a data frame back into operations. The operations
// own their data (copied out of the frame).
func UnmarshalFrame(data []byte) ([]Operation, error) {
	return appendFrameOps(nil, data, false)
}

// appendFrameOps decodes a frame's operations into dst, reusing its backing
// array; recovery replay passes a recycled scratch slice. With alias=true
// the decoded Data/Checkpoint fields alias the frame buffer (see
// unmarshalOperation). The declared operation count is validated against
// the frame length before any allocation, so a corrupt header cannot force
// an oversized slice.
func appendFrameOps(dst []Operation, data []byte, alias bool) ([]Operation, error) {
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
		op, rest, err := unmarshalOperation(data, alias, prev)
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
