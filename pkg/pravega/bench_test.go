package pravega

import (
	"context"
	"testing"

	"github.com/pravega-go/pravega/internal/hosting"
)

// benchSystem builds a 1-store/1-container deployment, either used directly
// (in-process transport) or fronted by a loopback wire server and reached
// through pravega.Connect. The pair makes the transports directly
// comparable: same data path behind the boundary, only the client transport
// differs.
func benchSystem(b *testing.B, tcp bool) *System {
	b.Helper()
	backing, err := NewInProcess(SystemConfig{
		Cluster: hosting.ClusterConfig{Stores: 1, ContainersPerStore: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	if !tcp {
		b.Cleanup(backing.Close)
		return backing
	}
	srv, err := serveBacking(backing, "127.0.0.1:0")
	if err != nil {
		backing.Close()
		b.Fatal(err)
	}
	sys, err := Connect(srv.Addr(), ClientConfig{})
	if err != nil {
		_ = srv.Close()
		backing.Close()
		b.Fatal(err)
	}
	b.Cleanup(func() {
		_ = sys.remote.Close()
		_ = srv.Close()
		backing.Close()
	})
	return sys
}

// benchWriter measures pipelined 100 B event writes through the public API,
// acknowledging in windows of 256 so the writer's batching and the
// transport's pipelining both engage.
func benchWriter(b *testing.B, tcp bool) {
	sys := benchSystem(b, tcp)
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

func BenchmarkWriterInProcess(b *testing.B) { benchWriter(b, false) }
func BenchmarkWriterLoopback(b *testing.B)  { benchWriter(b, true) }
