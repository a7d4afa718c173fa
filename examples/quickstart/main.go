// Quickstart: start an in-process Pravega deployment, create a stream,
// write ten events with routing keys, and read them back with a reader
// group — the minimal end-to-end tour of the public API.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/pravega-go/pravega/pkg/pravega"
)

func main() {
	// A full deployment: controller, 3 segment stores, 3 bookies, LTS.
	sys, err := pravega.NewInProcess(pravega.SystemConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	ctx := context.Background()

	if err := sys.Streams().CreateScope(ctx, "demo"); err != nil {
		log.Fatal(err)
	}
	if err := sys.Streams().Create(ctx, pravega.StreamConfig{
		Scope:           "demo",
		Name:            "events",
		InitialSegments: 2,
	}); err != nil {
		log.Fatal(err)
	}

	// Write: events with the same routing key are totally ordered.
	w, err := sys.NewWriter(pravega.WriterConfig{Scope: "demo", Stream: "events"})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("device-%d", i%3)
		w.WriteEvent(key, []byte(fmt.Sprintf("%s says hello #%d", key, i)))
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote 10 events")

	// Read: a reader group coordinates consumption across readers.
	rg, err := sys.NewReaderGroup("quickstart", "demo", "events")
	if err != nil {
		log.Fatal(err)
	}
	r, err := rg.NewReader("reader-1")
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 10; i++ {
		ev, err := r.ReadNextEvent(2 * time.Second)
		if err != nil {
			log.Fatalf("read %d: %v", i, err)
		}
		fmt.Printf("  read: %s (segment %d @ offset %d)\n", ev.Data, ev.Segment, ev.Offset)
	}
	fmt.Println("done")
}
