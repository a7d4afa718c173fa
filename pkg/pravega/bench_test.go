package pravega

import (
	"context"
	"testing"

	"github.com/pravega-go/pravega/internal/role"
)

// benchSystem builds a 1-store/1-container in-process deployment.
func benchSystem(b *testing.B) *System {
	b.Helper()
	sys, err := NewInProcess(SystemConfig{
		Cluster: role.ClusterConfig{Coord: role.CoordConfig{Stores: 1, Containers: 1}},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(sys.Close)
	return sys
}

// BenchmarkWriter measures pipelined 100 B event writes through the public
// API, acknowledging in windows of 256 so the writer's batching and the
// transport's pipelining both engage.
func BenchmarkWriter(b *testing.B) {
	sys := benchSystem(b)
	if err := sys.Streams().CreateScope(context.Background(), "bench"); err != nil {
		b.Fatal(err)
	}
	if err := sys.Streams().Create(context.Background(), StreamConfig{Scope: "bench", Name: "s", InitialSegments: 1}); err != nil {
		b.Fatal(err)
	}
	w, err := sys.NewWriter(WriterConfig{Scope: "bench", Stream: "s"})
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 100)
	const window = 256
	pending := make([]*WriteFuture, 0, window)
	b.SetBytes(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pending = append(pending, w.WriteEvent("k", data))
		if len(pending) == window {
			for _, f := range pending {
				if err := f.Wait(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			pending = pending[:0]
		}
	}
	for _, f := range pending {
		if err := f.Wait(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}
