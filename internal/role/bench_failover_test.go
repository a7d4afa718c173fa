package role

import (
	"fmt"
	"testing"
	"time"
)

// failoverShapes is the sweep grid: cluster width (stores), placement
// density (containers per store) and seeded WAL depth (appends per
// container before the first crash). The first entry is the historical
// 3×4×16 baseline; scripts/bench_json.sh records every point and keeps the
// baseline as the headline trend number.
var failoverShapes = []struct {
	stores, containers, wal int
}{
	{3, 4, 16}, // baseline — keep first
	{5, 4, 16},
	{8, 4, 16},
	{3, 8, 16},
	{3, 16, 16},
	{3, 4, 64},
	{3, 4, 256},
	{5, 8, 64},
}

// BenchmarkFailover measures crash-to-reconverged latency across the sweep:
// one store is crashed and the timer runs until every orphaned container
// has been fenced, replayed and re-acquired by a survivor. Between
// iterations a replacement store is added (untimed) so the cluster never
// shrinks. The reported µs/failover per shape is the signal
// scripts/bench_json.sh tracks as BENCH_failover.json.
func BenchmarkFailover(b *testing.B) {
	for _, s := range failoverShapes {
		b.Run(fmt.Sprintf("stores=%d/containers=%d/wal=%d", s.stores, s.containers, s.wal),
			func(b *testing.B) { benchFailover(b, s.stores, s.containers, s.wal) })
	}
}

func benchFailover(b *testing.B, stores, containersPerStore, walDepth int) {
	cl := newCluster(b, ClusterConfig{
		Coord: CoordConfig{Stores: stores, Containers: containersPerStore},
		Store: StoreConfig{LeaseTTL: 2 * time.Second},
	})

	// Real WAL state per container, so recovery includes fence-and-replay
	// work rather than just claim churn.
	for id := 0; id < cl.TotalContainers(); id++ {
		seg := segForContainer(id, cl.TotalContainers())
		if err := cl.coord.plane.CreateSegment(seg); err != nil {
			b.Fatal(err)
		}
		c := containerFor(b, cl, seg)
		for i := 0; i < walDepth; i++ {
			if _, err := c.Append(seg, []byte("failover-bench-payload"), "w", int64(i+1), 1); err != nil {
				b.Fatal(err)
			}
		}
	}

	var totalRecovery time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim := -1
		for si, st := range cl.Stores() {
			if !st.Closed() {
				victim = si
				break
			}
		}
		if victim < 0 {
			b.Fatal("no live store to crash")
		}
		start := time.Now()
		if err := cl.CrashStore(victim); err != nil {
			b.Fatal(err)
		}
		if err := cl.AwaitConverged(30 * time.Second); err != nil {
			b.Fatalf("iteration %d: %v", i, err)
		}
		totalRecovery += time.Since(start)

		b.StopTimer()
		if _, err := cl.AddStore(); err != nil {
			b.Fatal(err)
		}
		if err := cl.AwaitConverged(30 * time.Second); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(totalRecovery.Microseconds())/float64(b.N), "µs/failover")
}
