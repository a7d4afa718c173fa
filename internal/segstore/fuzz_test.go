package segstore

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalFrame feeds arbitrary bytes to the frame decoder: corrupted
// frames must produce an error, never a panic, and the declared op count
// must never force an allocation larger than the input could justify.
func FuzzUnmarshalFrame(f *testing.F) {
	// Valid single- and multi-op frames as seeds.
	ops := []*Operation{
		{Type: OpCreate, Segment: "s/a/0"},
		{Type: OpAppend, Segment: "s/a/0", Offset: 0, Data: []byte("hello"), WriterID: "w", EventNum: 1, EventCount: 1},
		{Type: OpSeal, Segment: "s/a/0"},
		{Type: OpTruncate, Segment: "s/a/0", TruncateAt: 2},
		{Type: OpCheckpoint, Segment: "", Checkpoint: []byte(`{"v":1}`)},
	}
	f.Add(MarshalFrame(ops[:1]))
	f.Add(MarshalFrame(ops))
	// One append several cache entries long: the applier splits it.
	f.Add(MarshalFrame([]*Operation{{Type: OpAppend, Segment: "s/a/0", Data: bytes.Repeat([]byte{0xA5}, 3<<20), WriterID: "w", EventNum: 2, EventCount: 1}}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := UnmarshalFrame(data)
		if err != nil {
			return
		}
		// A valid decode must re-encode to a frame that decodes to the same
		// operations (canonical round trip).
		ptrs := make([]*Operation, len(decoded))
		for i := range decoded {
			ptrs[i] = &decoded[i]
		}
		again, err := UnmarshalFrame(MarshalFrame(ptrs))
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v", err)
		}
		if len(again) != len(decoded) {
			t.Fatalf("round trip op count: %d != %d", len(again), len(decoded))
		}
		for i := range decoded {
			a, b := &decoded[i], &again[i]
			if a.Type != b.Type || a.Segment != b.Segment || a.Offset != b.Offset ||
				a.WriterID != b.WriterID || a.EventNum != b.EventNum ||
				a.EventCount != b.EventCount || a.TruncateAt != b.TruncateAt ||
				!bytes.Equal(a.Data, b.Data) || !bytes.Equal(a.Checkpoint, b.Checkpoint) {
				t.Fatalf("round trip op %d: %+v != %+v", i, a, b)
			}
		}
	})
}

// FuzzUnmarshalOperation feeds arbitrary bytes to the single-operation
// decoder. An operation it accepts decodes alike when the previous
// operation's strings are offered for reuse, and re-encodes to bytes that
// decode to it again.
func FuzzUnmarshalOperation(f *testing.F) {
	op := Operation{Type: OpAppend, Segment: "scope/stream/7.#epoch.0",
		Offset: 42, Data: []byte("payload"), WriterID: "writer-1", EventNum: 3, EventCount: 1}
	f.Add(op.Marshal(nil))
	f.Add((&Operation{Type: OpCreate, Segment: "x"}).Marshal(nil))
	f.Add([]byte{byte(OpCheckpoint), 0x04, 'a', 'b', 'c', 'd'})
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, rest, err := UnmarshalOperation(data)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("remainder grew: %d > %d", len(rest), len(data))
		}
		same := func(what string, a, b Operation) {
			if a.Type != b.Type || a.Segment != b.Segment ||
				a.WriterID != b.WriterID || a.Offset != b.Offset ||
				!bytes.Equal(a.Data, b.Data) || !bytes.Equal(a.Checkpoint, b.Checkpoint) {
				t.Fatalf("%s: %+v != %+v", what, a, b)
			}
		}
		prev := Operation{Segment: got.Segment, WriterID: got.WriterID}
		reused, _, err := unmarshalOperation(data, &prev)
		if err != nil {
			t.Fatalf("decode with a previous op failed where one without succeeded: %v", err)
		}
		same("decode with a previous op", reused, got)
		again, _, err := UnmarshalOperation(got.Marshal(nil))
		if err != nil {
			t.Fatalf("re-decode of re-encoded op failed: %v", err)
		}
		same("round trip", again, got)
	})
}
