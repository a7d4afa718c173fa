package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/pravega-go/pravega/internal/blockcache"
	"github.com/pravega-go/pravega/internal/bookkeeper"
	"github.com/pravega-go/pravega/internal/cluster"
	"github.com/pravega-go/pravega/internal/lts"
	"github.com/pravega-go/pravega/internal/readahead"
	"github.com/pravega-go/pravega/internal/readindex"
	"github.com/pravega-go/pravega/internal/segstore"
	"github.com/pravega-go/pravega/internal/wal"
	"github.com/pravega-go/pravega/internal/wire"
	"github.com/pravega-go/pravega/pkg/pravega"
)

// The probes time calls into each layer's public functions from outside:
// in the bench process for layers that need no deployment, against the
// live deployment (after the measured interval, so it is idle) for the
// remote ones. One span per call. Spans on the append chain — the names in
// trace.go's parents — all carry the payload a single 100 B event turns
// into at that layer, so their medians can be subtracted.
const (
	probeCalls     = 200  // microsecond-scale calls per probe
	probeFastCalls = 2000 // nanosecond-scale calls per probe
	probeBigCalls  = 30   // 1 MiB calls per probe
	probeWarm      = 10   // untimed calls before each probe
	probeTimeout   = 10 * time.Second

	probeSmall = smallEvent + frameOverhead // one framed 100 B event
	probeFrame = 200                        // a WAL frame carrying one such append
	size4K     = 4 << 10
	size64K    = 64 << 10
	size1M     = 1 << 20
)

// timeCalls runs f n times after a short warm-up, recording one span per
// call under name.
func (e *env) timeCalls(name string, n int, f func(i int) error) error {
	for i := 0; i < probeWarm+n; i++ {
		start := time.Now()
		if err := f(i); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if i >= probeWarm {
			e.tr.record(name, start, time.Now())
		}
	}
	return nil
}

// timeAsync is timeCalls for a callback API carrying a payload of size
// bytes: start begins call i and must arrange for done to be called once;
// the span ends when it is, or fails after probeTimeout.
func (e *env) timeAsync(name string, n, size int, start func(i int, data []byte, done func(error))) error {
	data := filled(size)
	return e.timeCalls(name, n, func(i int) error {
		ch := make(chan error, 1)
		start(i, data, func(err error) { ch <- err })
		select {
		case err := <-ch:
			return err
		case <-time.After(probeTimeout):
			return errors.New("no completion within " + probeTimeout.String())
		}
	})
}

func filled(n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(int64(n))).Read(b)
	return b
}

// probe runs every probe. It needs the deployment still up.
func (e *env) probe() error {
	if err := e.probeRemote(); err != nil {
		return err
	}
	if err := e.probeStorageStack(); err != nil {
		return err
	}
	return e.probePure()
}

// probeRemote times the layers that only exist across processes: the wire
// client against the store, the coordination store and a bookie over the
// wire against the coord, and the controller.
func (e *env) probeRemote() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*probeTimeout)
	defer cancel()
	start := time.Now()
	if err := e.sys.Streams().Create(ctx, pravega.StreamConfig{Scope: scope, Name: "probe", InitialSegments: 1}); err != nil {
		return err
	}
	e.tr.record("controller.create_stream", start, time.Now())
	for i := 0; i < 9; i++ {
		start := time.Now()
		if err := e.sys.Streams().Create(ctx, pravega.StreamConfig{Scope: scope, Name: fmt.Sprintf("probe-%d", i), InitialSegments: 1}); err != nil {
			return err
		}
		e.tr.record("controller.create_stream", start, time.Now())
	}
	err := e.timeCalls("controller.get_active_segments", probeCalls, func(int) error {
		_, err := e.wc.GetActiveSegments(scope, "probe")
		return err
	})
	if err != nil {
		return err
	}
	segs, err := e.wc.GetActiveSegments(scope, "probe")
	if err != nil {
		return err
	}
	seg := segs[0].ID.QualifiedName()

	err = e.timeCalls("wire.roundtrip", probeCalls, func(int) error {
		_, err := e.wc.GetInfo(seg)
		return err
	})
	if err != nil {
		return err
	}
	var eventNum int64
	appendProbe := func(name string, size, calls int) error {
		return e.timeAsync(name, calls, size, func(_ int, data []byte, done func(error)) {
			eventNum++
			e.wc.AppendAsync(seg, data, "probe", eventNum, 1, func(r segstore.AppendResult) { done(r.Err) })
		})
	}
	if err := appendProbe("wire.append", probeSmall, probeCalls); err != nil {
		return err
	}
	if err := appendProbe("wire.append_64k", size64K, probeCalls); err != nil {
		return err
	}
	if err := appendProbe("wire.append_1m", size1M, probeBigCalls); err != nil {
		return err
	}
	info, err := e.wc.GetInfo(seg)
	if err != nil {
		return err
	}
	err = e.timeCalls("wire.read_64k", probeCalls, func(int) error {
		res, err := e.wc.Read(seg, info.Length-size64K, size64K, 0)
		if err == nil && len(res.Data) != size64K {
			err = fmt.Errorf("read %d bytes", len(res.Data))
		}
		return err
	})
	if err != nil {
		return err
	}

	rs, err := wire.DialCoord(e.d.coordAddr, wire.ClientConfig{})
	if err != nil {
		return err
	}
	defer rs.Close()
	if err := rs.CreateAll("/bench/probe", []byte("x")); err != nil {
		return err
	}
	err = e.timeCalls("cluster.remote_get", probeCalls, func(int) error {
		_, _, err := rs.Get("/bench/probe")
		return err
	})
	if err != nil {
		return err
	}
	bookie := wire.NewRemoteBookie("bookie-0", rs)
	return e.timeAsync("wire.bookie_add_64k", probeCalls, size64K, func(i int, data []byte, done func(error)) {
		bookie.AddEntry(1<<40, int64(i), data, done) // a ledger id no WAL will ever be given
	})
}

// probeStorageStack builds the store's write path bottom-up in this
// process — three in-memory bookies, a ledger, a WAL, a container over
// them — and times each level, then the container's two read paths.
func (e *env) probeStorageStack() error {
	meta := cluster.NewStore()
	bk, err := bookkeeper.NewClient(bookkeeper.ClientConfig{Meta: meta})
	if err != nil {
		return err
	}
	var bookies []*bookkeeper.Bookie
	for i := 0; i < deployBookies; i++ {
		b := bookkeeper.NewBookie(bookkeeper.BookieConfig{ID: fmt.Sprintf("probe-bookie-%d", i)})
		defer b.Close()
		bk.RegisterBookie(b)
		bookies = append(bookies, b)
	}
	repl := bookkeeper.DefaultReplication()

	addProbe := func(name string, size int) error {
		return e.timeAsync(name, probeCalls, size, func(i int, data []byte, done func(error)) {
			bookies[0].AddEntry(1<<40+int64(size), int64(i), data, done)
		})
	}
	if err := addProbe("bookkeeper.add", probeFrame); err != nil {
		return err
	}
	if err := addProbe("bookkeeper.add_64k", size64K); err != nil {
		return err
	}

	ledger, err := bk.CreateLedger(repl)
	if err != nil {
		return err
	}
	ledgerProbe := func(name string, size int) error {
		return e.timeAsync(name, probeCalls, size, func(_ int, data []byte, done func(error)) {
			ledger.AppendAsync(data, func(_ int64, err error) { done(err) })
		})
	}
	if err := ledgerProbe("bookkeeper.ledger_append", probeFrame); err != nil {
		return err
	}
	if err := ledgerProbe("bookkeeper.ledger_append_64k", size64K); err != nil {
		return err
	}
	md, err := bk.Metadata(ledger.ID())
	if err != nil {
		return err
	}
	err = e.timeCalls("bookkeeper.read_entry", probeCalls, func(i int) error {
		_, err := bk.ReadEntry(md, int64(i))
		return err
	})
	if err != nil {
		return err
	}

	log, err := wal.Open(wal.Config{Name: "probe", Client: bk, Meta: meta, Replication: repl})
	if err != nil {
		return err
	}
	walProbe := func(name string, size int) error {
		return e.timeAsync(name, probeCalls, size, func(_ int, data []byte, done func(error)) {
			log.AppendAsync(data, func(_ wal.Address, err error) { done(err) })
		})
	}
	err = walProbe("wal.append", probeFrame)
	if err == nil {
		err = walProbe("wal.append_64k", size64K)
	}
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	ltsDir := filepath.Join(e.d.dir, "probe-lts")
	if err := os.Mkdir(ltsDir, 0o755); err != nil {
		return err
	}
	fs, err := lts.NewFS(ltsDir)
	if err != nil {
		return err
	}
	// Two cache buffers (4 MiB): anything older is in long-term storage only.
	c, err := segstore.NewContainer(segstore.ContainerConfig{
		BK: bk, Meta: meta, Replication: repl, LTS: fs,
		Cache: blockcache.Config{MaxBuffers: 2},
	})
	if err != nil {
		return err
	}
	defer c.Close()
	const seg = "bench/probe/0.#epoch.0"
	if err := c.CreateSegment(seg); err != nil {
		return err
	}
	var eventNum int64
	appendProbe := func(name string, size, calls int) error {
		return e.timeAsync(name, calls, size, func(_ int, data []byte, done func(error)) {
			eventNum++
			c.AppendAsyncFunc(seg, data, "probe", eventNum, 1, func(r segstore.AppendResult) { done(r.Err) })
		})
	}
	if err := appendProbe("segstore.append", probeSmall, probeCalls); err != nil {
		return err
	}
	// 256 x 64 KiB = 16 MiB: four times the cache, so the head is evicted.
	if err := appendProbe("segstore.append_64k", size64K, 256-probeWarm); err != nil {
		return err
	}
	var length int64
	for deadline := time.Now().Add(probeTimeout); ; time.Sleep(5 * time.Millisecond) {
		i, err := c.GetInfo(seg)
		if err != nil {
			return err
		}
		if i.StorageLength == i.Length {
			length = i.Length
			break
		}
		if time.Now().After(deadline) {
			return errors.New("segstore probe: data not tiered in time")
		}
	}
	err = e.timeCalls("segstore.read_cache_64k", probeCalls, func(int) error {
		res, err := c.Read(seg, length-size64K, size64K, 0)
		if err == nil && len(res.Data) != size64K {
			err = fmt.Errorf("read %d bytes", len(res.Data))
		}
		return err
	})
	if err != nil {
		return err
	}
	// Walk the evicted head backwards, so no two reads line up and the
	// readahead prefetcher never takes over from long-term storage.
	const ltsRegion = 8 << 20
	return e.timeCalls("segstore.read_lts_1m", probeBigCalls, func(i int) error {
		off := int64(ltsRegion - size1M - (i%7)*size1M)
		res, err := c.Read(seg, off, size1M, 0)
		if err == nil && len(res.Data) == 0 {
			err = errors.New("empty read")
		}
		return err
	})
}

// probePure times the layers that are plain data structures.
func (e *env) probePure() error {
	// Frame codec: 256 appends of 100 B, the shape ingest_100b produces.
	ops := make([]*segstore.Operation, 256)
	for i := range ops {
		ops[i] = &segstore.Operation{Type: segstore.OpAppend, Segment: "bench/w/0.#epoch.0", Data: filled(probeSmall), WriterID: "w", EventNum: int64(i), EventCount: 1, CondOffset: -1}
	}
	var frame []byte
	err := e.timeCalls("segstore.marshal_frame", probeCalls, func(int) error {
		frame = segstore.MarshalFrame(ops)
		return nil
	})
	if err != nil {
		return err
	}
	err = e.timeCalls("segstore.unmarshal_frame", probeCalls, func(int) error {
		_, err := segstore.UnmarshalFrame(frame)
		return err
	})
	if err != nil {
		return err
	}

	cache := blockcache.New(blockcache.Config{})
	insertProbe := func(name string, size int) (blockcache.Address, error) {
		data := filled(size)
		var last blockcache.Address
		err := e.timeCalls(name, probeCalls, func(int) error {
			addr, err := cache.Insert(data)
			last = addr
			return err
		})
		return last, err
	}
	if _, err := insertProbe("blockcache.insert_4k", size4K); err != nil {
		return err
	}
	addr, err := insertProbe("blockcache.insert_64k", size64K)
	if err != nil {
		return err
	}
	err = e.timeCalls("blockcache.get_64k", probeFastCalls, func(int) error {
		_, err := cache.Get(addr)
		return err
	})
	if err != nil {
		return err
	}

	const indexEntries = 10000
	idx := readindex.New()
	err = e.timeCalls("readindex.add", indexEntries-probeWarm, func(i int) error {
		idx.Add(readindex.Entry{Offset: int64(i) * size4K, Length: size4K, Where: readindex.InLTS})
		return nil
	})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(e.cfg.seed))
	err = e.timeCalls("readindex.find", probeFastCalls, func(int) error {
		_, err := idx.Find(rng.Int63n(indexEntries * size4K))
		return err
	})
	if err != nil {
		return err
	}

	rangeData := filled(size1M)
	ra := readahead.New(readahead.Config{Fetch: func(string, int64, int64) ([]byte, error) { return rangeData, nil }})
	defer ra.Close()
	const limit = 64 << 20
	ra.Observe("s", 0, size1M, limit)
	ra.Observe("s", size1M, 2*size1M, limit) // two reads in line: ranges 2.. are scheduled
	for deadline := time.Now().Add(probeTimeout); ; time.Sleep(time.Millisecond) {
		if _, ok := ra.Get("s", 2*size1M); ok {
			break
		}
		if time.Now().After(deadline) {
			return errors.New("readahead probe: range never buffered")
		}
	}
	err = e.timeCalls("readahead.get", probeFastCalls, func(int) error {
		if _, ok := ra.Get("s", 2*size1M+size4K); !ok {
			return errors.New("buffered range missed")
		}
		return nil
	})
	if err != nil {
		return err
	}

	fsDir := filepath.Join(e.d.dir, "probe-fs")
	if err := os.Mkdir(fsDir, 0o755); err != nil {
		return err
	}
	fs, err := lts.NewFS(fsDir)
	if err != nil {
		return err
	}
	chunk := filled(size1M)
	for i := 0; i < probeWarm+probeBigCalls; i++ {
		if err := fs.Create(fmt.Sprintf("chunk-%d", i)); err != nil {
			return err
		}
	}
	err = e.timeCalls("lts.fs_write_1m", probeBigCalls, func(i int) error {
		return fs.Write(fmt.Sprintf("chunk-%d", i), 0, chunk)
	})
	if err != nil {
		return err
	}
	buf := make([]byte, size1M)
	err = e.timeCalls("lts.fs_read_1m", probeBigCalls, func(i int) error {
		_, err := fs.Read(fmt.Sprintf("chunk-%d", i), 0, buf)
		return err
	})
	if err != nil {
		return err
	}

	store := cluster.NewStore()
	if err := store.CreateAll("/bench/probe", nil); err != nil {
		return err
	}
	val := filled(64)
	err = e.timeCalls("cluster.set", probeFastCalls, func(int) error {
		_, err := store.Set("/bench/probe", val, -1)
		return err
	})
	if err != nil {
		return err
	}
	return e.timeCalls("cluster.get", probeFastCalls, func(int) error {
		_, _, err := store.Get("/bench/probe")
		return err
	})
}
