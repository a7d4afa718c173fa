// Replay: demonstrates tiered storage (§4.3) and historical reads (§5.7).
// A writer fills a stream; the storage writer moves the data to long-term
// storage and truncates the write-ahead log; a late-joining reader group
// then replays the full history from LTS, and a retention policy finally
// truncates the stream head.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/pravega-go/pravega/internal/role"
	"github.com/pravega-go/pravega/pkg/pravega"
)

func main() {
	sys, err := pravega.NewInProcess(pravega.SystemConfig{
		Cluster: role.ClusterConfig{Coord: role.CoordConfig{PolicyInterval: 300 * time.Millisecond}},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()

	if err := sys.Streams().CreateScope(ctx, "history"); err != nil {
		log.Fatal(err)
	}
	if err := sys.Streams().Create(ctx, pravega.StreamConfig{
		Scope:           "history",
		Name:            "audit",
		InitialSegments: 4,
	}); err != nil {
		log.Fatal(err)
	}

	// Fill the stream with a day's worth of audit records.
	const records = 5000
	w, err := sys.NewWriter(pravega.WriterConfig{Scope: "history", Stream: "audit"})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < records; i++ {
		key := fmt.Sprintf("user-%d", i%57)
		w.WriteEvent(key, []byte(fmt.Sprintf("%s action=%06d payload=%064d", key, i, i)))
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d audit records\n", records)

	// Wait for the storage writer to tier everything to LTS; the WAL is
	// truncated once data is safe in long-term storage (§4.3).
	if err := sys.Cluster().WaitForTiering(10 * time.Second); err != nil {
		log.Fatalf("tiering did not complete: %v", err)
	}
	var tiered int64
	for _, st := range sys.Cluster().Stores() {
		for _, id := range st.HostedContainers() {
			c, err := st.ContainerByID(id)
			if err != nil {
				continue
			}
			if err := c.FlushAll(); err != nil {
				log.Fatal(err)
			}
			tiered += c.Stats().BytesWritten
		}
	}
	fmt.Printf("all data tiered to long-term storage (%d KiB through the WAL)\n", tiered/1024)

	// A brand-new reader group replays the whole history — the reads are
	// served from LTS chunks, not from the WAL or cache.
	rg, err := sys.NewReaderGroup("replayer", "history", "audit")
	if err != nil {
		log.Fatal(err)
	}
	r, err := rg.NewReader("replay-1")
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	got := 0
	for got < records {
		if _, err := r.ReadNextEvent(5 * time.Second); err != nil {
			log.Fatalf("replay stalled after %d records: %v", got, err)
		}
		got++
	}
	_ = r.Close()
	fmt.Printf("replayed %d records from LTS in %s\n", got, time.Since(start).Round(time.Millisecond))

	// Retention: bound the stream to ~64 KiB and let the policy loop
	// truncate the head (§2.1).
	if err := sys.Streams().UpdatePolicies(ctx, "history", "audit", nil, &pravega.RetentionPolicy{
		Type:       pravega.RetentionBySize,
		LimitBytes: 64 << 10,
	}); err != nil {
		log.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		time.Sleep(300 * time.Millisecond)
		heads, err := sys.Controller().GetHeadSegments("history", "audit")
		if err != nil {
			log.Fatal(err)
		}
		var truncated int64
		for _, h := range heads {
			truncated += h.StartOffset
		}
		if truncated > 0 {
			fmt.Printf("retention truncated %d KiB off the stream head; a new reader group now starts at the retained head\n", truncated/1024)
			fmt.Println("done")
			return
		}
	}
	fmt.Println("done (retention still pending — increase the wait to observe truncation)")
}
