package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/pravega-go/pravega/internal/wire"
	"github.com/pravega-go/pravega/pkg/pravega"
)

const (
	scope         = "bench"
	ingestKeys    = 256
	ingestSegs    = 4
	smallEvent    = 100
	largeEvent    = 10 << 10
	smallWindow   = 4096 // unacknowledged events in flight, 100 B
	largeWindow   = 512  // unacknowledged events in flight, 10 KiB
	tailRate      = 10000.0
	preloadBytes  = 1 << 30
	quickPreload  = 64 << 20
	setupRepeats  = 5
	tieringBudget = 60 * time.Second
	// catchup_mixed spends this share of its measured seconds (rounded to
	// whole windows) on the paced writer and tail reader alone, which is
	// what is gated; the catch-up reader joins them for the rest (README:
	// why the mixed part is not gated).
	aloneShare = 2.0 / 3
	// openInFlight bounds an open-loop writer's unacknowledged events, in
	// seconds of its rate.
	openInFlight = 2.0
	// pacedPass is how long the paced traffic stays on one stream before it
	// moves to a fresh one: appends and tail reads get slower as a segment
	// grows (README), so one long pass measures how long it ran.
	pacedPass = 4.0
)

// workload is one fixed traffic shape. Names are cited by later issues; do
// not rename.
type workload struct {
	name    string
	why     string
	streams func(seconds float64) map[string]int // stream -> segments, created during set-up
	// headline names the end-to-end metric the tracing overhead is read from.
	headline string
	run      func(e *env) error
}

var workloads = []workload{
	{
		name:     "ingest_100b",
		why:      "closed loop, one writer, 100 B events, 256 keys over 4 segments, no reader: per-event cost (client batching, wire framing, frame builder, applier, allocations) dominates",
		streams:  func(float64) map[string]int { return map[string]int{"w": ingestSegs} },
		headline: "write_events_per_s",
		run:      func(e *env) error { return e.ingest(smallEvent, smallWindow, e.warm()) },
	},
	{
		name:     "ingest_10kb",
		why:      "closed loop, one writer, 10 KiB events, 256 keys over 4 segments, no reader: per-byte cost (copies, 3x bookie adds over the store-coord hop, cache insert and evict, LTS flush, throttle) dominates",
		streams:  func(float64) map[string]int { return map[string]int{"w": ingestSegs} },
		headline: "write_mb_per_s",
		// The long warm-up fills the 4 x 128 MiB block caches and lets the
		// coord's heap of WAL entries reach its plateau (about 2 GB written):
		// throughput falls by a third until then.
		run: func(e *env) error { return e.ingest(largeEvent, largeWindow, 8*time.Second) },
	},
	{
		name:     "tail_paced",
		why:      "open loop, 10 000 ev/s x 100 B on one key with one tail reader: the latency path at a rate where queues are empty, so bigger or later batches show as a loss",
		streams:  func(seconds float64) map[string]int { return pacedStreams(len(passes(seconds))) },
		headline: "write_p50_ms",
		run:      (*env).tailPaced,
	},
	{
		name: "catchup_mixed",
		why:  "tail_paced's traffic on a deployment holding a tiered 1 GiB backlog of 10 KiB events, first alone (gated), then beside a reader draining the backlog from long-term storage (reported)",
		streams: func(float64) map[string]int {
			m := pacedStreams(2)
			m["hist"] = ingestSegs
			return m
		},
		headline: "write_p50_ms",
		run:      (*env).catchupMixed,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// env is one workload run against one deployment.
type env struct {
	cfg  *config
	wl   *workload
	d    *deployment
	sys  *pravega.System
	wc   *wire.Client // the harness's own connection: GetInfo, live probes
	tr   *tracer      // nil on the untraced run
	pool []byte

	setupS   []float64 // one per set-up: launch -> converged -> connected -> streams created
	preloadS float64   // catchup_mixed: preload written and tiered

	attempted, failed int64

	// The gated traffic, one pass per stream it ran on.
	gated []*pass
	// catchup_mixed's second part: the same traffic again, now beside the
	// reader draining the backlog. Nil elsewhere.
	mixed *pass
}

// pass is one measured interval of one writer, with the tail reader and
// whatever else ran beside it, and what was read at its window boundaries.
type pass struct {
	ph      *phase
	write   *writeStats
	tail    *readStats // nil on the ingest workloads
	catchup *readStats // catchup_mixed's second part only
	edges   []edge     // edges[w-1] and edges[w] bracket window w
}

// passes cuts seconds of paced traffic into passes of at most pacedPass.
func passes(seconds float64) []float64 {
	var out []float64
	for ; seconds > pacedPass; seconds -= pacedPass {
		out = append(out, pacedPass)
	}
	return append(out, seconds)
}

// pacedStreams names n one-segment streams for paced traffic.
func pacedStreams(n int) map[string]int {
	m := make(map[string]int, n)
	for i := 0; i < n; i++ {
		m[pacedStream(i)] = 1
	}
	return m
}

func pacedStream(i int) string { return fmt.Sprintf("t%d", i) }

// aloneSeconds is the length of catchup_mixed's first part.
func aloneSeconds(seconds float64) float64 { return float64(int(seconds*aloneShare + 0.5)) }

// setUp launches a deployment, connects and creates the workload's streams,
// setupRepeats times; all but the last are torn down again. Each is timed
// from launch to streams created.
func (e *env) setUp() error {
	repeats := setupRepeats
	if e.cfg.quick {
		repeats = 2
	}
	for i := 0; i < repeats; i++ {
		if i > 0 {
			e.tearDown()
		}
		start := time.Now()
		d, err := launch(e.cfg.bin, e.cfg.outDir)
		if err != nil {
			return err
		}
		e.d = d
		if e.sys, err = pravega.Connect(d.coordAddr, pravega.ClientConfig{}); err != nil {
			return fmt.Errorf("connecting: %w", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), readyTimeout)
		err = e.sys.Streams().CreateScope(ctx, scope)
		for stream, segs := range e.wl.streams(e.cfg.seconds) {
			if err != nil {
				break
			}
			err = e.sys.Streams().Create(ctx, pravega.StreamConfig{Scope: scope, Name: stream, InitialSegments: segs})
		}
		cancel()
		if err != nil {
			return fmt.Errorf("creating streams: %w", err)
		}
		e.setupS = append(e.setupS, time.Since(start).Seconds())
	}
	var err error
	if e.wc, err = wire.NewClient(e.d.coordAddr, wire.ClientConfig{}); err != nil {
		return fmt.Errorf("harness wire client: %w", err)
	}
	return nil
}

func (e *env) tearDown() {
	if e.wc != nil {
		_ = e.wc.Close()
		e.wc = nil
	}
	if e.sys != nil {
		e.sys.Close()
		e.sys = nil
	}
	if e.d != nil {
		e.d.close()
		e.d = nil
	}
}

func (e *env) warm() time.Duration {
	if e.cfg.quick {
		return 300 * time.Millisecond
	}
	return 1500 * time.Millisecond
}

func (e *env) traced() bool { return e.tr != nil }

func (e *env) newPhase(seconds float64) *phase {
	return newPhase(time.Duration(seconds*float64(time.Second)), e.traced())
}

func (e *env) writer(stream string) (*pravega.EventWriter, error) {
	return e.sys.NewWriter(pravega.WriterConfig{Scope: scope, Stream: stream})
}

func (e *env) reader(group, stream string) (*pravega.Reader, error) {
	rg, err := e.sys.NewReaderGroup(group, scope, stream)
	if err != nil {
		return nil, err
	}
	return rg.NewReader("reader-1")
}

// streamLength sums the durable length of a stream's active segments and
// reports whether all of it has reached long-term storage.
func (e *env) streamLength(stream string) (length int64, tiered bool, err error) {
	segs, err := e.wc.GetActiveSegments(scope, stream)
	if err != nil {
		return 0, false, err
	}
	tiered = true
	for _, s := range segs {
		info, err := e.wc.GetInfo(s.ID.QualifiedName())
		if err != nil {
			return 0, false, err
		}
		length += info.Length
		tiered = tiered && info.StorageLength == info.Length
	}
	return length, tiered, nil
}

// verifyBytes is the writer-only check: the stream must hold exactly the
// acknowledged events, framed. A difference counts as that many failed
// events (at least one).
func (e *env) verifyBytes(stream string, st *writeStats, size int) error {
	length, _, err := e.streamLength(stream)
	if err != nil {
		return err
	}
	want := st.acked * int64(size+frameOverhead)
	if diff := length - want; diff != 0 && st.failed == 0 {
		if diff < 0 {
			diff = -diff
		}
		e.failed += 1 + diff/int64(size+frameOverhead)
		fmt.Fprintf(e.cfg.log, "bench: %s/%s holds %d bytes, acknowledged events make %d\n", scope, stream, length, want)
	}
	return nil
}

// ingest is the closed-loop write workload: one writer, no reader. It is
// verified by byte totals once the writer has drained.
func (e *env) ingest(size, window int, warm time.Duration) error {
	w, err := e.writer("w")
	if err != nil {
		return err
	}
	g := newGenerator(e.cfg.seed, e.pool, size, ingestKeys)
	p := &pass{ph: e.newPhase(e.cfg.seconds)}
	p.write = newWriteStats(p.ph)
	if e.cfg.quick {
		warm = e.warm()
	}
	done := make(chan struct{})
	go func() {
		closedLoop(w, g, window, 0, p.ph, e.tr, p.write)
		close(done)
	}()
	p.ph.run(warm, nil, func() { p.edges = append(p.edges, e.readEdge()) })
	<-done
	e.gated = append(e.gated, p)
	e.attempted += p.write.sent
	e.failed += p.write.failed
	return e.verifyBytes("w", p.write, size)
}

// tailPaced is the latency workload: one paced writer, one key, one
// segment, one tail reader, on a fresh stream every pacedPass seconds.
func (e *env) tailPaced() error {
	for i, seconds := range passes(e.cfg.seconds) {
		p, err := e.paced(pacedStream(i), seconds, nil, nil)
		if err != nil {
			return err
		}
		e.gated = append(e.gated, p)
	}
	return nil
}

// paced runs tail_paced's traffic — an open-loop writer of tailRate events
// of smallEvent bytes per second on one key, and a tail reader — on stream
// for seconds. beside, when set, runs next to them on the same phase and may
// end the interval early by closing early.
func (e *env) paced(stream string, seconds float64, early chan struct{}, beside func(p *pass)) (*pass, error) {
	w, err := e.writer(stream)
	if err != nil {
		return nil, err
	}
	r, err := e.reader("tail-"+stream, stream)
	if err != nil {
		return nil, err
	}
	g := newGenerator(e.cfg.seed, e.pool, smallEvent, 1)
	v := newVerifier(e.pool, smallEvent, 1)
	p := &pass{ph: e.newPhase(seconds)}
	p.write, p.tail = newWriteStats(p.ph), newReadStats(p.ph)
	goal := newReadGoal()
	acks := make(chan pending, int(tailRate*openInFlight))
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		openLoop(w, g, tailRate, p.ph, e.tr, p.write, acks)
	}()
	go func() {
		defer wg.Done()
		collect(acks, smallEvent, p.ph, p.write)
		goal.finish(p.write.acked)
	}()
	go func() {
		defer wg.Done()
		readLoop(r, v, true, false, goal, p.ph, e.tr, p.tail)
	}()
	if beside != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			beside(p)
		}()
	}
	p.ph.run(e.warm(), early, func() { p.edges = append(p.edges, e.readEdge()) })
	wg.Wait()
	e.attempted += p.write.sent + p.write.acked
	e.failed += p.write.failed + v.failures(g.seqs)
	return p, nil
}

// catchupMixed preloads and tiers a backlog during set-up. Part one is
// tail_paced's traffic alone on that deployment: the gated numbers. Part
// two runs it again beside one reader draining the
// backlog from the head, until it passes the preload mark or the time is
// up; at this commit the store's catch-up read path swings between 15 and
// 600 MB/s from one run to the next and takes the appends beside it along,
// so part two is reported, not gated.
func (e *env) catchupMixed() error {
	total := int64(preloadBytes)
	if e.cfg.quick {
		total = quickPreload
	}
	start := time.Now()
	w, err := e.writer("hist")
	if err != nil {
		return err
	}
	g := newGenerator(e.cfg.seed+1, e.pool, largeEvent, ingestKeys)
	idle := newPhase(0, false) // no windows: nothing in the preload is measured
	pre := newWriteStats(idle)
	closedLoop(w, g, largeWindow, total/largeEvent, idle, nil, pre)
	e.attempted += pre.sent
	e.failed += pre.failed
	for deadline := time.Now().Add(tieringBudget); ; {
		_, tiered, err := e.streamLength("hist")
		if err != nil {
			return err
		}
		if tiered {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("preload not tiered within %v", tieringBudget)
		}
		time.Sleep(5 * time.Millisecond)
	}
	e.preloadS = time.Since(start).Seconds()
	if err := e.verifyBytes("hist", pre, largeEvent); err != nil {
		return err
	}

	// One pass, not tail_paced's several: on a deployment that has just
	// tiered a backlog the first seconds of a stream vary more from run to
	// run than the slowdown of a growing segment does (write_p50_ms spread
	// 35 % in two passes of 4 s, 2-4 % in one of 8 s).
	alone := aloneSeconds(e.cfg.seconds)
	p, err := e.paced(pacedStream(0), alone, nil, nil)
	if err != nil {
		return err
	}
	e.gated = append(e.gated, p)

	r, err := e.reader("catchup", "hist")
	if err != nil {
		return err
	}
	v := newVerifier(e.pool, largeEvent, ingestKeys)
	goal := newReadGoal()
	goal.target.Store(pre.acked)
	early := make(chan struct{})
	e.mixed, err = e.paced(pacedStream(1), e.cfg.seconds-alone, early, func(p *pass) {
		p.catchup = newReadStats(p.ph)
		readLoop(r, v, false, true, goal, p.ph, e.tr, p.catchup)
		if !p.ph.stopped.Load() {
			close(early) // passed the preload mark before the time was up
		}
	})
	e.attempted += v.read
	e.failed += v.failures(nil)
	return err
}
