// Package omb is an OpenMessaging-Benchmark-style workload driver (§5.1):
// open-loop rate-controlled producers, latency capture without coordinated
// omission (latency is measured from the *intended* send time), end-to-end
// latency via embedded produce timestamps, a max-rate closed-loop mode
// (Fig. 11) and a backlog-drain mode for historical reads (Fig. 12). One
// driver runs against Pravega and both baselines through small adapter
// interfaces.
package omb

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/pravega-go/pravega/internal/obs"
)

// Ack resolves when a produced event is acknowledged.
type Ack interface {
	Done() <-chan struct{}
	Err() error
}

// Producer is one producer/writer client.
type Producer interface {
	// Send asynchronously produces an event of the given size routed by
	// key ("" = no routing key). produced is embedded so consumers can
	// compute end-to-end latency.
	Send(key string, size int, produced time.Time) Ack
	// Flush waits for outstanding sends.
	Flush() error
	Close() error
}

// Message is one consumed event.
type Message struct {
	Size     int
	Produced time.Time
}

// Consumer is one consumer/reader client.
type Consumer interface {
	// Poll returns available messages, waiting up to maxWait when idle.
	Poll(maxWait time.Duration) ([]Message, error)
	Close() error
}

// System is a benchmarkable deployment.
type System interface {
	Name() string
	CreateTopic(topic string, partitions int) error
	NewProducer(topic string) (Producer, error)
	// NewConsumers returns n consumers that partition the topic's
	// consumption among themselves.
	NewConsumers(topic string, n int) ([]Consumer, error)
	Close()
}

// WorkloadConfig describes one benchmark run.
type WorkloadConfig struct {
	Topic      string
	Partitions int
	// Producers is the producer (writer) count.
	Producers int
	// RatePerSec is the total target event rate; 0 = closed-loop max rate.
	RatePerSec float64
	// EventSize in bytes.
	EventSize int
	// Duration of the measured interval.
	Duration time.Duration
	// WarmUp before measurement starts.
	WarmUp time.Duration
	// KeyCardinality is the number of distinct routing keys (0 = no keys,
	// the paper's "no routing keys" variants).
	KeyCardinality int
	// Consumers (0 = write-only workload).
	Consumers int
	// MaxOutstanding bounds in-flight events per producer in closed-loop
	// mode (default 512).
	MaxOutstanding int
}

// Result is one run's measurements.
type Result struct {
	System     string
	EventsSent int64
	EventsRecv int64
	Errors     int64
	Elapsed    time.Duration
	// Write throughput (acknowledged).
	EventsPerSec float64
	MBPerSec     float64
	// WriteLatency is the producer ack latency distribution (µs).
	WriteLatency obs.HistogramSnapshot
	// E2ELatency is produce→consume latency (µs), when consuming.
	E2ELatency obs.HistogramSnapshot
	// ReadMBPerSec is consumer throughput.
	ReadMBPerSec float64
	// Failed marks runs where the system crashed or errored heavily
	// (Pulsar in Fig. 10b).
	Failed bool
}

// Run executes the workload against the system. The topic must already
// exist (callers often pre-create it to configure policies).
func Run(sys System, cfg WorkloadConfig) (Result, error) {
	if cfg.MaxOutstanding <= 0 {
		cfg.MaxOutstanding = 512
	}
	producers := make([]Producer, cfg.Producers)
	for i := range producers {
		p, err := sys.NewProducer(cfg.Topic)
		if err != nil {
			return Result{}, err
		}
		producers[i] = p
	}
	var consumers []Consumer
	if cfg.Consumers > 0 {
		cs, err := sys.NewConsumers(cfg.Topic, cfg.Consumers)
		if err != nil {
			return Result{}, err
		}
		consumers = cs
	}

	res := Result{System: sys.Name()}
	writeLat := obs.NewHistogram()
	e2eLat := obs.NewHistogram()
	var sent, recvd, errs, recvBytes atomic.Int64
	var measuring atomic.Bool

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Consumers.
	for _, c := range consumers {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				msgs, err := c.Poll(20 * time.Millisecond)
				if err != nil {
					errs.Add(1)
					continue
				}
				now := time.Now()
				for _, m := range msgs {
					if measuring.Load() {
						recvd.Add(1)
						recvBytes.Add(int64(m.Size))
						e2eLat.Record(now.Sub(m.Produced).Microseconds())
					}
				}
			}
		}()
	}

	// Producers.
	keys := makeKeys(cfg.KeyCardinality)
	perProducerRate := 0.0
	if cfg.RatePerSec > 0 {
		perProducerRate = cfg.RatePerSec / float64(cfg.Producers)
	}
	for pi, p := range producers {
		p, pi := p, pi
		wg.Add(1)
		go func() {
			defer wg.Done()
			runProducer(p, pi, cfg, keys, perProducerRate, stop, &measuring, writeLat, &sent, &errs, cfg.MaxOutstanding)
		}()
	}

	time.Sleep(cfg.WarmUp)
	measuring.Store(true)
	start := time.Now()
	time.Sleep(cfg.Duration)
	measuring.Store(false)
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()
	for _, p := range producers {
		_ = p.Close()
	}
	for _, c := range consumers {
		_ = c.Close()
	}

	res.EventsSent = sent.Load()
	res.EventsRecv = recvd.Load()
	res.Errors = errs.Load()
	res.Elapsed = elapsed
	sec := elapsed.Seconds()
	res.EventsPerSec = float64(res.EventsSent) / sec
	res.MBPerSec = float64(res.EventsSent) * float64(cfg.EventSize) / sec / 1e6
	res.ReadMBPerSec = float64(recvBytes.Load()) / sec / 1e6
	res.WriteLatency = writeLat.Snapshot()
	res.E2ELatency = e2eLat.Snapshot()
	// A run is failed when a large share of sends errored (broker crash).
	if res.EventsSent+res.Errors > 0 && float64(res.Errors)/float64(res.EventsSent+res.Errors) > 0.05 {
		res.Failed = true
	}
	return res, nil
}

// runProducer is one producer thread: open-loop at a fixed rate, or
// closed-loop at max speed with a bounded outstanding window.
func runProducer(p Producer, idx int, cfg WorkloadConfig, keys []string, rate float64,
	stop <-chan struct{}, measuring *atomic.Bool, lat *obs.Histogram,
	sent, errs *atomic.Int64, maxOutstanding int) {

	sem := make(chan struct{}, maxOutstanding)
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(time.Second) / rate)
	}
	next := time.Now()
	keyIdx := idx
	for {
		select {
		case <-stop:
			return
		default:
		}
		if interval > 0 {
			now := time.Now()
			if wait := next.Sub(now); wait > 0 {
				select {
				case <-time.After(wait):
				case <-stop:
					return
				}
			}
			// Open loop: intended send time advances regardless of how
			// long the send takes (no coordinated omission).
			next = next.Add(interval)
		}
		key := ""
		if len(keys) > 0 {
			key = keys[keyIdx%len(keys)]
			keyIdx++
		}
		intended := next.Add(-interval)
		if interval == 0 {
			intended = time.Now()
		}
		select {
		case sem <- struct{}{}:
		case <-stop:
			return
		}
		ack := p.Send(key, cfg.EventSize, time.Now())
		m := measuring.Load()
		go func(intended time.Time) {
			<-ack.Done()
			<-sem
			if ack.Err() != nil {
				errs.Add(1)
				return
			}
			if m {
				sent.Add(1)
				lat.Record(time.Since(intended).Microseconds())
			}
		}(intended)
	}
}

func makeKeys(n int) []string {
	if n <= 0 {
		return nil
	}
	keys := make([]string, n)
	for i := range keys {
		keys[i] = "key-" + itoa(i)
	}
	return keys
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
