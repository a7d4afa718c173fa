package segstore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// benchOps builds a representative 64-operation frame of small appends —
// the shape §4.1's dynamic batching produces under a high-rate small-event
// workload.
func benchOps() []*Operation {
	ops := make([]*Operation, 64)
	for i := range ops {
		ops[i] = &Operation{
			Type:       OpAppend,
			Segment:    "scope/stream/7.#epoch.0",
			Offset:     int64(i * 100),
			Data:       make([]byte, 100),
			WriterID:   "writer-000",
			EventNum:   int64(i + 1),
			EventCount: 1,
			CondOffset: -1,
		}
	}
	return ops
}

// BenchmarkMarshalFrame measures the frame-marshal step of the append hot
// loop: serializing one 64-op data frame into the parts the WAL takes (the
// ops' headers, and their payloads by reference).
func BenchmarkMarshalFrame(b *testing.B) {
	ops := benchOps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = marshalFrame(ops)
	}
}

// BenchmarkUnmarshalFrame measures recovery-replay decode of one frame.
func BenchmarkUnmarshalFrame(b *testing.B) {
	data := MarshalFrame(benchOps())
	b.ReportAllocs()
	b.ResetTimer()
	var scratch []Operation
	for i := 0; i < b.N; i++ {
		var err error
		scratch, err = appendFrameOps(scratch[:0], data)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendPipeline drives the full container append path (operation
// queue → frame builder → WAL → in-order applier → completion) with 100 B
// events and a bounded pipelining window, the paper's small-event hot path
// (§4.1, §5.2). allocs/op covers the whole pipeline: it is the headline
// number for the zero-allocation work.
func BenchmarkAppendPipeline(b *testing.B) {
	env := newTestEnv(b)
	c := newTestContainer(b, env, 0)
	const seg = "bench/stream/0.#epoch.0"
	if err := c.CreateSegment(seg); err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 100)
	const window = 256
	w := newWindow()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.wg.Add(1)
		c.AppendAsyncFunc(seg, data, "", 0, 1, w.done)
		if (i+1)%window == 0 {
			w.wait(b)
		}
	}
	w.wait(b)
	b.StopTimer()
	b.SetBytes(100)
}

// BenchmarkAppendPipelineParallel is the contended variant: many writer
// goroutines appending to distinct segments of one container.
func BenchmarkAppendPipelineParallel(b *testing.B) {
	env := newTestEnv(b)
	c := newTestContainer(b, env, 0)
	var segID atomic.Int32
	data := make([]byte, 100)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		seg := fmt.Sprintf("bench/par/%d.#epoch.0", segID.Add(1))
		if err := c.CreateSegment(seg); err != nil {
			b.Fatal(err)
		}
		const window = 64
		w := newWindow()
		for i := 1; pb.Next(); i++ {
			w.wg.Add(1)
			c.AppendAsyncFunc(seg, data, "", 0, 1, w.done)
			if i%window == 0 {
				w.wait(b)
			}
		}
		w.wait(b)
	})
}

// window is a bounded set of appends in flight; its done callback is made
// once, so the benchmarks' own code allocates nothing per append.
type window struct {
	wg   sync.WaitGroup
	mu   sync.Mutex
	err  error
	done func(AppendResult)
}

func newWindow() *window {
	w := &window{}
	w.done = func(r AppendResult) {
		if r.Err != nil {
			w.mu.Lock()
			w.err = r.Err
			w.mu.Unlock()
		}
		w.wg.Done()
	}
	return w
}

// wait blocks until every append in the window completed.
func (w *window) wait(b *testing.B) {
	w.wg.Wait()
	if w.err != nil {
		b.Fatal(w.err)
	}
}
