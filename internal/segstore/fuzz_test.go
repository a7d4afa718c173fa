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
// decoder, in both copying and aliasing modes.
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
		// Aliasing mode must decode identically (it only changes buffer
		// ownership, not the wire format).
		prev := Operation{Segment: got.Segment, WriterID: got.WriterID}
		aliased, _, err := unmarshalOperation(data, true, &prev)
		if err != nil {
			t.Fatalf("alias decode failed where copy decode succeeded: %v", err)
		}
		if aliased.Type != got.Type || aliased.Segment != got.Segment ||
			aliased.WriterID != got.WriterID || aliased.Offset != got.Offset ||
			!bytes.Equal(aliased.Data, got.Data) || !bytes.Equal(aliased.Checkpoint, got.Checkpoint) {
			t.Fatalf("alias decode mismatch: %+v != %+v", aliased, got)
		}
		// The copying decoder must own its memory: mutating the input after
		// decode must not change the operation.
		if len(data) > 0 {
			mutated := append([]byte(nil), data...)
			got2, _, err := UnmarshalOperation(mutated)
			if err != nil {
				t.Fatalf("decode of identical copy failed: %v", err)
			}
			for i := range mutated {
				mutated[i] ^= 0xFF
			}
			if !bytes.Equal(got2.Data, got.Data) || !bytes.Equal(got2.Checkpoint, got.Checkpoint) {
				t.Fatal("decoded operation aliases its input in copy mode")
			}
		}
	})
}
