package pravega

import (
	"context"
	"errors"
	"testing"

	"github.com/pravega-go/pravega/internal/kvtable"
)

func TestKeyValueTableOverSegments(t *testing.T) {
	ctx := context.Background()
	sys := newTestSystem(t)
	if err := sys.Streams().CreateScope(ctx, "kv"); err != nil {
		t.Fatal(err)
	}
	tb, err := sys.NewKeyValueTable("kv", "config")
	if err != nil {
		t.Fatal(err)
	}
	v, err := tb.Put(ctx, "threshold", []byte("100"), NotExists)
	if err != nil || v != 0 {
		t.Fatalf("Put = %d, %v", v, err)
	}
	// A second handle over the same table sees the entry and can update it
	// conditionally.
	tb2, err := sys.NewKeyValueTable("kv", "config")
	if err != nil {
		t.Fatal(err)
	}
	e, ok, err := tb2.Get(ctx, "threshold")
	if err != nil || !ok || string(e.Value) != "100" {
		t.Fatalf("second handle Get = %+v, %v, %v", e, ok, err)
	}
	if _, err := tb2.Put(ctx, "threshold", []byte("200"), e.Version); err != nil {
		t.Fatal(err)
	}
	// The first handle's stale conditional now fails.
	if _, err := tb.Put(ctx, "threshold", []byte("300"), e.Version); !errors.Is(err, kvtable.ErrVersionMismatch) {
		t.Fatalf("stale conditional: %v", err)
	}
	// Multi-key transaction.
	err = tb.Txn(ctx, []TableOp{
		{Key: "alpha", Value: []byte("1"), Expected: NotExists},
		{Key: "beta", Value: []byte("2"), Expected: NotExists},
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := tb2.Len(ctx)
	if err != nil || n != 3 {
		t.Fatalf("Len = %d, %v", n, err)
	}
	keys, err := tb2.Keys(ctx)
	if err != nil || len(keys) != 3 || keys[0] != "alpha" {
		t.Fatalf("Keys = %v, %v", keys, err)
	}
}
