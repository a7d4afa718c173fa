package segstore

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// UnmarshalOperation decodes one operation, returning the remainder. The
// returned operation's data aliases src.
func UnmarshalOperation(src []byte) (Operation, []byte, error) {
	return unmarshalOperation(src, nil)
}

// Marshal serializes the operation into dst, its payload in place.
func (op *Operation) Marshal(dst []byte) []byte {
	return append(op.marshalHead(dst), op.payload()...)
}

func TestOperationRoundTrip(t *testing.T) {
	ops := []Operation{
		{Type: OpCreate, Segment: "s/x/0.#epoch.0", CondOffset: -1},
		{Type: OpAppend, Segment: "s/x/0.#epoch.0", Offset: 1234, WriterID: "w-9",
			EventNum: 42, EventCount: 7, Data: []byte("payload bytes"), CondOffset: -1},
		{Type: OpSeal, Segment: "a/b/1.#epoch.2", CondOffset: -1},
		{Type: OpTruncate, Segment: "a/b/1.#epoch.2", TruncateAt: 99999, CondOffset: -1},
		{Type: OpDelete, Segment: "a/b/1.#epoch.2", CondOffset: -1},
		{Type: OpCheckpoint, Checkpoint: []byte(`{"segments":{}}`), CondOffset: -1},
	}
	for _, op := range ops {
		op := op
		data := op.Marshal(nil)
		got, rest, err := UnmarshalOperation(data)
		if err != nil {
			t.Fatalf("%v: %v", op.Type, err)
		}
		if len(rest) != 0 {
			t.Fatalf("%v: %d trailing bytes", op.Type, len(rest))
		}
		if got.Type != op.Type || got.Segment != op.Segment || got.Offset != op.Offset ||
			got.WriterID != op.WriterID || got.EventNum != op.EventNum ||
			got.EventCount != op.EventCount || got.TruncateAt != op.TruncateAt ||
			!bytes.Equal(got.Data, op.Data) || !bytes.Equal(got.Checkpoint, op.Checkpoint) {
			t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", op, got)
		}
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		ops := make([]*Operation, n)
		for i := range ops {
			data := make([]byte, rng.Intn(200))
			rng.Read(data)
			ops[i] = &Operation{
				Type:       OpAppend,
				Segment:    "scope/stream/0.#epoch.0",
				Offset:     rng.Int63n(1 << 40),
				WriterID:   "writer",
				EventNum:   rng.Int63n(1 << 30),
				EventCount: int32(rng.Intn(100)),
				Data:       data,
				CondOffset: -1,
			}
		}
		frame := MarshalFrame(ops)
		got, err := UnmarshalFrame(frame)
		if err != nil || len(got) != n {
			return false
		}
		for i := range got {
			if got[i].Offset != ops[i].Offset || !bytes.Equal(got[i].Data, ops[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, _, err := UnmarshalOperation(nil); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, _, err := UnmarshalOperation([]byte{0xFF, 0x01, 'x'}); err == nil {
		t.Fatal("unknown op type accepted")
	}
	if _, err := UnmarshalFrame([]byte{}); err == nil {
		t.Fatal("empty frame accepted")
	}
	// Truncated append op.
	op := Operation{Type: OpAppend, Segment: "s/x/0.#epoch.0", Data: []byte("abc"), CondOffset: -1}
	data := op.Marshal(nil)
	if _, _, err := UnmarshalOperation(data[:len(data)-2]); err == nil {
		t.Fatal("truncated op accepted")
	}
	// Frame with trailing junk.
	frame := MarshalFrame([]*Operation{&op})
	if _, err := UnmarshalFrame(append(frame, 0x00)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}
