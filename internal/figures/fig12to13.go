package figures

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/pravega-go/pravega/internal/obs"
	"github.com/pravega-go/pravega/internal/omb"
	"github.com/pravega-go/pravega/pkg/pravega"
)

// Fig12 reproduces "Historical read performance" (§5.7): writers fill a
// backlog at a fixed rate into a 16-partition topic/stream; readers are
// then released and must catch up from long-term storage while writes
// continue. Pravega drains via parallel chunk reads; Pulsar's sequential
// per-partition offload path stays below the write rate.
func Fig12(o Options) (*Figure, error) {
	o.defaults()
	const parts = 16
	writeMBps := 100.0 // paper scale
	backlog := int64(2 << 30)
	drainTimeout := 60 * time.Second
	if o.Quick {
		backlog = 256 << 20
		drainTimeout = 20 * time.Second
	}
	fig := &Figure{
		ID:     "Fig12",
		Title:  fmt.Sprintf("Historical read catch-up (10KB events, %d partitions, %.0fMB/s writers, %dMB backlog paper-scale)", parts, writeMBps, backlog>>20),
		XLabel: "partitions",
	}

	builders := []sysBuilder{
		pravegaDefault(),
		{name: "Pravega (no readahead)", build: func(o *Options) (omb.System, error) {
			return newPravega(o, pravegaVariant{label: "Pravega (no readahead)", seqRead: true})
		}},
		{name: "Pulsar (tiering)", build: func(o *Options) (omb.System, error) {
			return newPulsar(o, pulsarVariant{label: "Pulsar (tiering)", batching: true, tiering: true})
		}},
	}
	for _, b := range builders {
		sys, err := b.build(&o)
		if err != nil {
			return fig, err
		}
		r, err := runBacklogDrain(&o, sys, backlogCfg{
			partitions:   parts,
			eventSize:    10_000,
			writeBps:     writeMBps * 1e6 / o.Scale,
			backlogBytes: int64(float64(backlog) / o.Scale),
			consumers:    parts,
			drainTimeout: drainTimeout,
		})
		sys.Close()
		if err != nil {
			return fig, err
		}
		fig.add(b.name, parts, scaleUp(r, o.Scale))
		if r.Failed {
			fig.note("%s did not catch up within the drain timeout (read rate below write rate)", b.name)
		}
	}
	fig.note("paper: Pravega peaks at 731MB/s via parallel chunk reads; no Pulsar configuration read faster than the 100MB/s write rate")
	fig.Print(o.Out)
	return fig, nil
}

type backlogCfg struct {
	partitions   int
	eventSize    int
	writeBps     float64 // scaled bytes/s
	backlogBytes int64   // scaled bytes
	consumers    int
	drainTimeout time.Duration
}

// runBacklogDrain implements the OpenMessaging "hold readers until a
// backlog accumulates" mode (§5.7). ReadMBPerSec reports the drain rate
// (scaled; the caller converts to paper scale); Failed marks a run that
// never caught up.
func runBacklogDrain(o *Options, sys omb.System, cfg backlogCfg) (omb.Result, error) {
	topic := "backlog"
	if err := sys.CreateTopic(topic, cfg.partitions); err != nil {
		return omb.Result{}, err
	}
	prod, err := sys.NewProducer(topic)
	if err != nil {
		return omb.Result{}, err
	}
	var written, writeErrs atomic.Int64
	stopWriters := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		interval := time.Duration(float64(cfg.eventSize) / cfg.writeBps * float64(time.Second))
		next := time.Now()
		i := 0
		for {
			select {
			case <-stopWriters:
				return
			default:
			}
			if wait := time.Until(next); wait > 0 {
				time.Sleep(wait)
			}
			next = next.Add(interval)
			ack := prod.Send(fmt.Sprintf("key-%d", i%997), cfg.eventSize, time.Now())
			i++
			go func() {
				<-ack.Done()
				if ack.Err() != nil {
					writeErrs.Add(1)
					return
				}
				written.Add(int64(cfg.eventSize))
			}()
		}
	}()

	// Phase 1: accumulate the backlog (readers held).
	for written.Load() < cfg.backlogBytes {
		time.Sleep(50 * time.Millisecond)
	}

	// Phase 2: release readers; writers keep writing.
	consumers, err := sys.NewConsumers(topic, cfg.consumers)
	if err != nil {
		close(stopWriters)
		return omb.Result{}, err
	}
	var read atomic.Int64
	stopReaders := make(chan struct{})
	readersDone := make(chan struct{}, len(consumers))
	for _, c := range consumers {
		c := c
		go func() {
			defer func() { readersDone <- struct{}{} }()
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				msgs, err := c.Poll(20 * time.Millisecond)
				if err != nil {
					continue
				}
				for _, m := range msgs {
					read.Add(int64(m.Size))
				}
			}
		}()
	}

	drainStart := time.Now()
	var peak float64
	lastRead := int64(0)
	lastAt := drainStart
	caughtUp := false
	for time.Since(drainStart) < cfg.drainTimeout {
		time.Sleep(500 * time.Millisecond)
		now := time.Now()
		r := read.Load()
		inst := float64(r-lastRead) / now.Sub(lastAt).Seconds()
		if inst > peak {
			peak = inst
		}
		lastRead, lastAt = r, now
		if r >= written.Load() {
			caughtUp = true
			break
		}
	}
	drainElapsed := time.Since(drainStart)
	close(stopWriters)
	<-writerDone
	_ = prod.Close()
	close(stopReaders)
	for range consumers {
		<-readersDone
	}
	for _, c := range consumers {
		_ = c.Close()
	}

	res := omb.Result{
		System:       sys.Name(),
		EventsSent:   written.Load() / int64(cfg.eventSize),
		Errors:       writeErrs.Load(),
		Elapsed:      drainElapsed,
		MBPerSec:     cfg.writeBps / 1e6,
		ReadMBPerSec: peak / 1e6,
		Failed:       !caughtUp,
	}
	res.EventsPerSec = float64(res.EventsSent) / drainElapsed.Seconds()
	return res, nil
}

// Fig13 reproduces "View of stream auto-scaling role on performance"
// (§5.8): a stream with a 20 MB/s-per-segment scaling policy ingesting
// 100 MB/s of 10 KB events, starting from one segment. The output is the
// time series the paper plots: per-segment-store load, active segment
// count, and p50 write latency.
func Fig13(o Options) (*AutoScaleSeries, error) {
	o.defaults()
	duration := 45 * time.Second
	if o.Quick {
		duration = 15 * time.Second
	}
	targetBps := 20e6 / o.Scale  // 20 MB/s per segment, paper scale
	ingestBps := 100e6 / o.Scale // 100 MB/s total

	psys, err := newPravega(&o, pravegaVariant{})
	if err != nil {
		return nil, err
	}
	defer psys.Close()
	sys := psys.Sys
	sys.Controller().StartPolicyLoops(500 * time.Millisecond)
	err = sys.Streams().Create(context.Background(), pravega.StreamConfig{
		Scope: "bench", Name: "autoscale", InitialSegments: 1,
		Scaling: pravega.ScalingPolicy{
			Type:       pravega.ScalingByThroughput,
			TargetRate: targetBps,
		},
	})
	if err != nil {
		return nil, err
	}
	w, err := sys.NewWriter(pravega.WriterConfig{Scope: "bench", Stream: "autoscale"})
	if err != nil {
		return nil, err
	}

	series := &AutoScaleSeries{Stores: 3}
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	lat := obs.NewHistogram()
	eventSize := 10_000
	go func() {
		defer close(writerDone)
		interval := time.Duration(float64(eventSize) / ingestBps * float64(time.Second))
		next := time.Now()
		i := 0
		payload := make([]byte, eventSize)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if wait := time.Until(next); wait > 0 {
				time.Sleep(wait)
			}
			intended := next
			next = next.Add(interval)
			f := w.WriteEvent(fmt.Sprintf("key-%d", i%997), payload)
			i++
			go func() {
				<-f.Done()
				if f.Err() == nil {
					lat.Record(time.Since(intended).Microseconds())
				}
			}()
		}
	}()

	start := time.Now()
	ticker := time.NewTicker(time.Second)
	defer ticker.Stop()
	for time.Since(start) < duration {
		<-ticker.C
		segs, _ := sys.Streams().SegmentCount(context.Background(), "bench", "autoscale")
		loads := psys.Sys.Cluster().LoadByStore()
		snap := lat.Snapshot()
		lat.Reset()
		sample := AutoScaleSample{
			T:        time.Since(start).Round(time.Second),
			Segments: segs,
			P50ms:    snap.P50 / 1e3,
		}
		for _, st := range []string{"segmentstore-0", "segmentstore-1", "segmentstore-2"} {
			sample.StoreMBps = append(sample.StoreMBps, loads[st]*o.Scale/1e6)
		}
		series.Samples = append(series.Samples, sample)
	}
	close(stop)
	<-writerDone
	_ = w.Close()

	series.Print(o.Out)
	return series, nil
}

// AutoScaleSample is one second of the Fig. 13 time series.
type AutoScaleSample struct {
	T         time.Duration
	Segments  int
	P50ms     float64
	StoreMBps []float64 // paper-scale MB/s per segment store
}

// AutoScaleSeries is the Fig. 13 output.
type AutoScaleSeries struct {
	Stores  int
	Samples []AutoScaleSample
}

// Print renders the time series.
func (s *AutoScaleSeries) Print(w interface{ Write([]byte) (int, error) }) {
	fmt.Fprintf(w, "\n== Fig13: Stream auto-scaling (100MB/s ingest, 20MB/s/segment policy, 10KB events) ==\n")
	fmt.Fprintf(w, "%6s %9s %10s", "t", "segments", "p50(ms)")
	for i := 0; i < s.Stores; i++ {
		fmt.Fprintf(w, " store%d(MB/s)", i)
	}
	fmt.Fprintln(w)
	for _, sm := range s.Samples {
		fmt.Fprintf(w, "%6s %9d %10.2f", sm.T, sm.Segments, sm.P50ms)
		for _, v := range sm.StoreMBps {
			fmt.Fprintf(w, " %12.1f", v)
		}
		fmt.Fprintln(w)
	}
}
