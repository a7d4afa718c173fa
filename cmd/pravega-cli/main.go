// Command pravega-cli administers a pravega-server node over the wire
// protocol and provides simple write/read utilities. It is built on the
// same remote client the library API uses (pravega.Connect / wire.Client),
// so it exercises the production transport end to end.
//
// Usage:
//
//	pravega-cli -addr localhost:9090 create-scope demo
//	pravega-cli -addr localhost:9090 create-stream demo events 4
//	pravega-cli -addr localhost:9090 segments demo events
//	pravega-cli -addr localhost:9090 scale demo events <segment> <factor>
//	pravega-cli -addr localhost:9090 write demo events key1 "hello world"
//	pravega-cli -addr localhost:9090 tail demo events
package main

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"time"

	"github.com/pravega-go/pravega/internal/controller"
	"github.com/pravega-go/pravega/internal/wire"
	"github.com/pravega-go/pravega/pkg/pravega"
)

func main() {
	addr := flag.String("addr", "localhost:9090", "pravega-server address")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	sys, err := pravega.Connect(*addr, pravega.ClientConfig{})
	if err != nil {
		log.Fatalf("pravega-cli: connecting: %v", err)
	}
	defer sys.Close()
	ctx, streams := context.Background(), sys.Streams()

	switch args[0] {
	case "create-scope":
		need(args, 2)
		check(streams.CreateScope(ctx, args[1]))
		fmt.Println("scope created")
	case "create-stream":
		need(args, 4)
		segs, err := strconv.Atoi(args[3])
		if err != nil {
			log.Fatalf("pravega-cli: bad segment count %q", args[3])
		}
		check(streams.Create(ctx, pravega.StreamConfig{Scope: args[1], Name: args[2], InitialSegments: segs}))
		fmt.Println("stream created")
	case "segments":
		need(args, 3)
		for _, s := range activeSegments(*addr, args[1], args[2]) {
			fmt.Printf("segment %d  range %v  (%s)\n", s.ID.Number, s.KeyRange, s.ID.QualifiedName())
		}
	case "scale":
		need(args, 5)
		seg, _ := strconv.ParseInt(args[3], 10, 64)
		factor, _ := strconv.Atoi(args[4])
		check(streams.Scale(ctx, args[1], args[2], seg, factor))
		fmt.Println("scaled")
	case "seal-stream":
		need(args, 3)
		check(streams.Seal(ctx, args[1], args[2]))
		fmt.Println("sealed")
	case "write":
		need(args, 5)
		w, err := sys.NewWriter(pravega.WriterConfig{Scope: args[1], Stream: args[2]})
		check(err)
		check(w.WriteEvent(args[3], []byte(args[4])).Wait(ctx))
		check(w.Close())
		fmt.Println("written")
	case "tail":
		need(args, 3)
		tail(*addr, args[1], args[2])
	default:
		usage()
	}
}

func need(args []string, n int) {
	if len(args) < n {
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: pravega-cli [-addr host:port] <command>
commands:
  create-scope <scope>
  create-stream <scope> <stream> <segments>
  segments <scope> <stream>
  scale <scope> <stream> <segment> <factor>
  seal-stream <scope> <stream>
  write <scope> <stream> <key> <event>
  tail <scope> <stream>`)
	os.Exit(2)
}

func check(err error) {
	if err != nil {
		log.Fatalf("pravega-cli: %v", err)
	}
}

// wireClient opens the raw remote client for operations below the public
// API surface (segment listing and raw tail reads).
func wireClient(addr string) *wire.Client {
	wc, err := wire.NewClient(addr, wire.ClientConfig{})
	check(err)
	return wc
}

func activeSegments(addr, scope, stream string) []controller.SegmentWithRange {
	wc := wireClient(addr)
	defer wc.Close()
	segs, err := wc.GetActiveSegments(scope, stream)
	check(err)
	return segs
}

// tail follows every active segment from its current end and prints events.
func tail(addr, scope, stream string) {
	wc := wireClient(addr)
	defer wc.Close()
	segs, err := wc.GetActiveSegments(scope, stream)
	check(err)
	offsets := make(map[string]int64)
	for _, s := range segs {
		info, err := wc.GetInfo(s.ID.QualifiedName())
		check(err)
		offsets[s.ID.QualifiedName()] = info.Length
	}
	fmt.Println("tailing (ctrl-c to stop)...")
	for {
		for qn, off := range offsets {
			res, err := wc.Read(qn, off, 1<<16, 250*time.Millisecond)
			check(err)
			buf := res.Data
			for len(buf) >= 4 {
				n := binary.BigEndian.Uint32(buf)
				if len(buf) < int(4+n) {
					break
				}
				fmt.Printf("[%s@%d] %s\n", qn, off, buf[4:4+n])
				off += int64(4 + n)
				buf = buf[4+n:]
			}
			offsets[qn] = off
		}
	}
}
