// IoT pipeline: the paper's motivating scenario (§1) — many sensors feed
// one stream; per-sensor order matters; the ingest rate spikes and the
// stream auto-scales (§3.1) without any administrator action, while two
// parallel readers keep consuming with per-sensor order intact.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	"github.com/pravega-go/pravega/internal/role"
	"github.com/pravega-go/pravega/pkg/pravega"
)

const (
	sensors = 24
	perSlow = 40 // events per sensor in the slow phase
	perFast = 600
)

func main() {
	sys, err := pravega.NewInProcess(pravega.SystemConfig{
		Cluster: role.ClusterConfig{Coord: role.CoordConfig{
			PolicyInterval: 250 * time.Millisecond,
			ScaleCooldown:  500 * time.Millisecond,
		}},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()

	if err := sys.Streams().CreateScope(ctx, "iot"); err != nil {
		log.Fatal(err)
	}
	// Auto-scale when a segment sustains more than 200 events/s.
	if err := sys.Streams().Create(ctx, pravega.StreamConfig{
		Scope:           "iot",
		Name:            "telemetry",
		InitialSegments: 1,
		Scaling: pravega.ScalingPolicy{
			Type:       pravega.ScalingByEventRate,
			TargetRate: 200,
		},
	}); err != nil {
		log.Fatal(err)
	}

	w, err := sys.NewWriter(pravega.WriterConfig{Scope: "iot", Stream: "telemetry"})
	if err != nil {
		log.Fatal(err)
	}

	// Readers run concurrently with the workload.
	rg, err := sys.NewReaderGroup("analytics", "iot", "telemetry")
	if err != nil {
		log.Fatal(err)
	}
	var readers []*pravega.Reader
	for i := 0; i < 2; i++ {
		r, err := rg.NewReader(fmt.Sprintf("analytics-%d", i))
		if err != nil {
			log.Fatal(err)
		}
		readers = append(readers, r)
	}

	var mu sync.Mutex
	lastSeq := make(map[string]int)
	violations := 0
	received := 0
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, r := range readers {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ev, err := r.ReadNextEvent(200 * time.Millisecond)
				if err != nil {
					continue
				}
				parts := strings.SplitN(string(ev.Data), "#", 2)
				var seq int
				fmt.Sscanf(parts[1], "%d", &seq)
				mu.Lock()
				if prev, ok := lastSeq[parts[0]]; ok && seq != prev+1 {
					violations++
				}
				lastSeq[parts[0]] = seq
				received++
				mu.Unlock()
			}
		}()
	}

	seq := make(map[string]int) // global per-sensor sequence across phases
	emit := func(perSensor int, gap time.Duration, phase string) {
		fmt.Printf("phase %q: %d sensors × %d events\n", phase, sensors, perSensor)
		for i := 0; i < perSensor; i++ {
			for s := 0; s < sensors; s++ {
				key := fmt.Sprintf("sensor-%02d", s)
				w.WriteEvent(key, []byte(fmt.Sprintf("%s#%d", key, seq[key])))
				seq[key]++
			}
			time.Sleep(gap)
		}
		if err := w.Flush(ctx); err != nil {
			log.Fatal(err)
		}
		n, _ := sys.Streams().SegmentCount(ctx, "iot", "telemetry")
		fmt.Printf("  stream now has %d parallel segment(s)\n", n)
	}

	// Slow trickle, then a sustained spike that triggers scale-up. The
	// spike must outlast the load meter's sustained-rate window plus the
	// controller's cooldown before the stream splits (§3.1).
	emit(perSlow, 20*time.Millisecond, "overnight trickle")
	emit(perFast, 5*time.Millisecond, "morning rush")

	total := sensors * (perSlow + perFast)
	deadline := time.Now().Add(15 * time.Second)
	for {
		mu.Lock()
		got := received
		mu.Unlock()
		if got >= total || time.Now().After(deadline) {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	for _, r := range readers {
		_ = r.Close()
	}
	_ = w.Close()

	mu.Lock()
	defer mu.Unlock()
	fmt.Printf("consumed %d/%d events, per-sensor order violations: %d\n", received, total, violations)
	if violations > 0 {
		log.Fatal("per-key ordering was violated — this should never happen")
	}
	if received < total {
		log.Fatalf("missing events: %d of %d", total-received, total)
	}
	fmt.Println("per-sensor ordering held across auto-scaling ✔")
}
